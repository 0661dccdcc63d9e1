"""Seeded spec writer for the benchmark.

Writes every group spec the workloads read, built with ``solgrow.catalog``
and ``solgrow.specio``, then relabelled from the seed by conjugation:

* ``perm`` specs get a random relabelling of the points;
* ``matfp`` specs are conjugated by a random invertible matrix over F_p;
* ``matz`` specs are conjugated by a random signed permutation matrix;
* ``lamplighter`` specs are written as they are.

Conjugation keeps the group, its Cayley graph and the generator order, so
every output of the program is the same for every seed; only the bytes it
reads change (and the growth ``digest`` field, which hashes the spec).

Run as a child process so that set-up pays the same cold import of
``solgrow`` that every job pays:

    PYTHONPATH=src python3 perfbench/specs.py --seed 7 --out DIR

It writes ``DIR/<file>.json`` for each spec and ``DIR/manifest.json``,
which maps each file name to the ``spec_digest`` of the spec as loaded back
from disk.
"""

from __future__ import annotations

import argparse
import json
import os
import random

from solgrow.catalog import catalog
from solgrow.elements import GenSet, MatFp, MatZ, Perm
from solgrow.errors import ParseError
from solgrow.specio import dump_genset, load_genset, spec_digest

# file name -> catalog name
CATALOG_SPECS = {
    "agl1_64": "agl1(64)",
    "s4wrs2": "s4wrs2",
    "s3wrs3": "s3wrs3",
    "f2_3_c7": "f2^3:c7",
    "f3_2_q8": "f3^2:q8",
    "sl2_3": "sl2(3)",
    "sanov": "sanov",
    "lamplighter": "lamplighter",
    "z2": "z2",
    "heisenberg": "heisenberg",
}
# file name -> (parent spec file, generator rows over F_3): the center {+-I}
NORMAL_SPECS = {"sl2_3_center": ("sl2_3", [[[2, 0], [0, 2]]])}


def _random_invertible(rng: random.Random, n: int, p: int) -> MatFp:
    while True:
        entries = [rng.randrange(p) for _ in range(n * n)]
        try:
            return MatFp(n, p, entries)
        except ParseError:  # singular
            continue


def _signed_permutation(rng: random.Random, n: int) -> MatZ:
    cols = list(range(n))
    rng.shuffle(cols)
    entries = [0] * (n * n)
    for i, j in enumerate(cols):
        entries[i * n + j] = rng.choice((1, -1))
    return MatZ(n, entries)


def relabeller(gens: GenSet, rng: random.Random):
    """Return a function that conjugates one element by a random relabelling."""
    first = gens.elements[0]
    if isinstance(first, Perm):
        sigma = list(range(first.degree))
        rng.shuffle(sigma)

        def relabel_perm(g: Perm) -> Perm:
            images = [0] * len(sigma)
            for i, x in enumerate(g.images):
                images[sigma[i]] = sigma[x]
            return Perm(images)

        return relabel_perm
    if isinstance(first, (MatFp, MatZ)):
        if isinstance(first, MatFp):
            A = _random_invertible(rng, first.n, first.p)
        else:
            A = _signed_permutation(rng, first.n)
        A_inv = A.inverse()
        return lambda g: A * g * A_inv
    return lambda g: g


def write_specs(seed: int, out_dir: str) -> dict[str, str]:
    """Write every seeded spec into out_dir; return {file name: spec digest}."""
    os.makedirs(out_dir, exist_ok=True)
    manifest: dict[str, str] = {}
    relabel_of = {}

    def write(name: str, gens: GenSet) -> None:
        path = os.path.join(out_dir, name + ".json")
        dump_genset(gens, path)
        manifest[name] = spec_digest(load_genset(path))

    for name, cat_name in CATALOG_SPECS.items():
        gens = catalog(cat_name)
        relabel = relabeller(gens, random.Random(f"{seed}:{name}"))
        relabel_of[name] = relabel
        write(name, GenSet([relabel(g) for g in gens.elements], symmetric=gens.symmetric))
    for name, (parent, rows) in NORMAL_SPECS.items():
        relabel = relabel_of[parent]
        write(name, GenSet([relabel(MatFp(2, 3, r)) for r in rows]))
    return manifest


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    manifest = write_specs(args.seed, args.out)
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
