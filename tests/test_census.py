"""The repair census: how `label_mesh` ends from 320 seeded noisy starts.

Each of the eight `NOISE_SHAPES` is labelled from 40 starts, the naive
labeling with 1-4 blobs painted over it (`paint_blobs`) at seeds 0-9. Per
shape, the counts of each ending and one digest of the 40 final labelings
are pinned. A change that moves them on purpose re-pins them and quotes the
old and the new table; one that did not mean to has found a regression.
"""

import hashlib

import numpy as np
import pytest

from polycubelabel.pipeline import label_mesh

from helpers import NOISE_SHAPES, noise_mesh, paint_blobs

ENDINGS = ("all-monotone", "turning-points", "invalid, 1 label", "invalid, 2-5 labels",
           "invalid, 6 labels")

# shape: (counts per ending, in the order of ENDINGS; sha256 of the final
# labelings, int64 little-endian, blobs 1-4 outer and seeds 0-9 inner)
CENSUS = {
    "cone": ((6, 1, 32, 1, 0),
             "d47a6e10e10c1c18b3b8c50937bac628b6c7f1a3a84285e05c332aa23d795fb2"),
    "cube": ((39, 0, 1, 0, 0),
             "9111823e32a94dd4d8ee1f441c6cbb72059c51bfaf8abd7d83815f23b9326bb6"),
    "cylinder": ((9, 0, 31, 0, 0),
                 "0698819d2017a046b1b7bd05995a1592e52ac68bac57ac6c2ab1c3beb89b9678"),
    "l-prism": ((33, 5, 0, 1, 1),
                "cb830c65deb339b2c50970074020a590e0b010bf1c7b10d9a0085d25e98be232"),
    "sphere": ((37, 1, 2, 0, 0),
               "31a9deb45b5bd616618d6f28fce627b883aae2408163601fed070f4123ea757f"),
    "tilted-torus": ((0, 40, 0, 0, 0),
                     "e3eb6bd547595a45314a4bffd5384af8b6516213972791182e88727fcd7af811"),
    "torus": ((16, 14, 0, 0, 10),
              "02a2aa96fd1c148da48860f1bb86326621bc52731ba7e728c21929c031282621"),
    "wedge": ((24, 0, 7, 8, 1),
              "d29c4c41733a282e3c7407d0d01948973565726a24b888f5fac755fe4be3d14a"),
}


def ending(result) -> str:
    """One of ENDINGS; an `invalid` ending by how many labels it keeps."""
    if result.status == "valid-all-monotone":
        return ENDINGS[0]
    if result.status == "valid-with-turning-points":
        return ENDINGS[1]
    assert result.status == "invalid", result.status
    n = len(set(result.labels.tolist()))
    return ENDINGS[2] if n == 1 else ENDINGS[3] if n < 6 else ENDINGS[4]


def test_census_covers_every_noise_shape():
    assert sorted(CENSUS) == sorted(NOISE_SHAPES)


@pytest.mark.parametrize("shape", sorted(CENSUS))
def test_repair_census_is_pinned(shape):
    m = noise_mesh(shape)
    counts, digest = dict.fromkeys(ENDINGS, 0), hashlib.sha256()
    for n_blobs in range(1, 5):
        for seed in range(10):
            result = label_mesh(m, init_labels=paint_blobs(m, np.random.default_rng(seed), n_blobs))
            counts[ending(result)] += 1
            digest.update(result.labels.astype("<i8").tobytes())
    assert (tuple(counts.values()), digest.hexdigest()) == CENSUS[shape]
