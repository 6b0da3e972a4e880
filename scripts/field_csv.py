"""Print field NAME of a run directory as CSV: header ``x,y,value``, then one
row per node in node order ``iy * nx + ix``, every float through repr, so
each row reads back bit for bit to the node and to the value in NAME.bin.

    python3 scripts/field_csv.py RUN_DIR NAME > NAME.csv

NAME.bin is read by rootopt's binary field reader, on the domain of
RUN_DIR/config.txt.  A config or field that cannot be read ends the script
with exit status 1 and one ``error:`` line, as in the rootopt CLI."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rootopt.core import ValidationError
from rootopt.serialization import (config_from_mapping, load_field_binary, load_text,
                                   parse_config_text)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("run_dir", type=Path)
    ap.add_argument("name", help="state, psi or phi")
    args = ap.parse_args()
    try:
        text = load_text(args.run_dir / "config.txt")
        domain = config_from_mapping(parse_config_text(text)).run.domain
        field = load_field_binary(args.run_dir / f"{args.name}.bin", domain)
    except (ValidationError, FileNotFoundError) as exc:
        sys.exit(f"error: {exc}")
    nodes = field.grid.node_coordinates().tolist()
    sys.stdout.write("x,y,value\n" + "".join(
        f"{x!r},{y!r},{v!r}\n" for (x, y), v in zip(nodes, field.values.tolist())))


if __name__ == "__main__":
    main()
