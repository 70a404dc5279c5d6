"""Write src/ldacert/tile_nodes.npy: u and |grad u| at the nodes of the
default tile quadrature, built by convolved_indicator.

The smeared-tile functionals read these values for the default orders
(tiling._tile_quadrature) and build every other order's.  Run from the
repository root after a change to the tile rule, convolved_indicator or
the mollifier profiles:

    PYTHONPATH=src python tools/make_tile_nodes.py

tests/test_field.py::test_tile_node_data_is_the_build checks that the
file equals a fresh build.
"""

from pathlib import Path

import numpy as np

from ldacert import tiling


def main():
    pts, _ = tiling._tile_rule(tiling._TILE_ORDERS)
    values = np.stack(tiling._tile_node_values(pts)).astype("<f8", copy=False)
    path = Path(tiling.__file__).with_name("tile_nodes.npy")
    np.save(path, values, allow_pickle=False)
    print(f"wrote {path}: {values.dtype.str} {values.shape}")


if __name__ == "__main__":
    main()
