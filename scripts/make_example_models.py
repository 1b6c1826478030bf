"""Regenerate the example model files in models/.

Three fixtures: the closed unit cube under uniaxial far-field stress, the
same cube with its top (z = 1) face split into two trimmed patches, and a
single open quarter-cylinder surface (a geometry fixture; the solver refuses
open models, so this one is for inspection and IO testing only).
"""

import argparse
from pathlib import Path

from gibem.geometry import build_quarter_cylinder
from gibem.kernels import Material
from gibem.model import (
    BoundaryModel,
    FieldSpacePair,
    build_cube_model,
    build_trimmed_cube_model,
)
from gibem.modelio import write_model


def quarter_cylinder_model():
    patch = build_quarter_cylinder()
    return BoundaryModel(
        patches=[patch],
        field_pairs=[FieldSpacePair.from_orders(2)],
        material=Material(1000.0, 0.25),
        closed=False,
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out-dir", type=Path, default=Path(__file__).parent.parent / "models"
    )
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    targets = {
        "cube.json": build_cube_model(),
        "cube_trimmed.json": build_trimmed_cube_model(),
        "quarter_cylinder.json": quarter_cylinder_model(),
    }
    for name, model in targets.items():
        path = args.out_dir / name
        write_model(model, path)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
