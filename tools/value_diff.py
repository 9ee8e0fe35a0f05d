"""How far each output of ``tools/sweep_digest.py`` moved between two checkouts.

The digest says which sweep, model or self-check line changed; this script
says by how much.  It runs the same outputs in each checkout, each in a
process of its own, and prints one line per digest key:

- ``<key> same`` when every output is byte for byte the same;
- otherwise ``<key>`` and, for each CSV column, summary entry or model part
  that moved, ``<name>=<largest relative move>``, then ``/<largest move in
  roundoff-floor units>`` where the value is an error or a model part:
  a sweep's error columns against :func:`dfoq.bounds.roundoff_floor` at the
  row's radius (order 0 for ``err_f``, 1 for ``err_g``, 2 for the
  directional errors), and a model's ``c``, ``g`` and ``H`` at its set's
  radius.  A blank cell that gets a value, or the reverse, reads ``blank``;
  a flipped ``poised`` reads ``flips=<rows>``;
- ``<key> exit-<before>-><after>`` when the exit codes differ.

A cell, a summary entry or a number of a self-check line moves by ``|a - b| /
max(|a|, |b|)``; an entry of a model's vector or matrix moves relative to the
largest entry of that part, so a near-zero entry does not read as a large
move.  The roundoff floor takes ``1 + |f(x0)|`` as the function scale, as
the sweep's violation count does.
The last lines give, per CSV column and model part, the largest move over
all keys, and the number of keys that moved.

    python tools/value_diff.py /path/to/before            # against this checkout
    python tools/value_diff.py /path/to/before /path/to/after

BLAS runs on one thread, as in the digest.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import re
import subprocess
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = pathlib.Path(__file__).resolve()

# derivative order of each error column's roundoff floor; a bound is far
# above its floor, so only its relative move is read
CSV_ORDERS = {"err_f": 0, "err_g": 1, "err_dir_aligned_max": 2, "err_dir_cross_max": 2}
MODEL_ORDERS = {"c": 0, "g": 1, "H": 2}
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def dump(root):
    """Print one JSON line per digest output of the checkout at ``root``:
    its key, exit code and text, and the scale its floors need."""
    sys.path.insert(0, str(HERE.parent))
    import sweep_digest

    for key, argv, rc, fields in sweep_digest.outputs(root):
        item = {"key": key, "rc": rc, "fields": {k: v.decode() for k, v in fields.items()}}
        if rc == 0 and "summary" in fields:
            item["fscale"] = _sweep_fscale(json.loads(fields["summary"]))
        elif rc == 0 and argv[0] == "model":
            item["radius"] = _model_radius(argv, len(json.loads(fields["stdout"])["x0"]))
        print(json.dumps(item), flush=True)


def _sweep_fscale(summary):
    from dfoq import testbed

    tf = testbed.get(summary["function"], dim=summary["dim"], x0=summary["x0"])
    return 1.0 + abs(float(tf.f(tf.x0)))


def _model_radius(argv, dim):
    """Radius of the set a ``dfoq model`` call solves on: a stored set's, or
    the resolved unit frame's."""
    import numpy as np

    from dfoq.sample_sets import SampleSet
    from dfoq.sweep import resolve_frame

    spec = argv[argv.index("--set") + 1]
    if spec.startswith("file:"):
        return SampleSet.load(spec[len("file:"):]).radius
    return float(np.max(np.linalg.norm(resolve_frame(spec, dim), axis=0)))


def load(root):
    """``{key: item}`` of :func:`dump` run on ``root`` in a process of its own."""
    out = subprocess.run([sys.executable, str(HERE), "--dump", str(root)],
                         check=True, capture_output=True, text=True).stdout
    items = [json.loads(line) for line in out.splitlines()]
    return {item["key"]: item for item in items}


class _Moves:
    """Largest relative move and floor-unit move per name, and the names whose
    move is not a number (``text``), in first-seen order."""

    def __init__(self):
        self.rel, self.floor, self.text = {}, {}, {}

    def add(self, name, a, b, floor=None, scale=None):
        """The move from ``a`` to ``b``, relative to ``scale`` (by default
        ``max(|a|, |b|)``) and in units of ``floor``."""
        if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
            if a != b:
                self.text[name] = "blank" if (a is None) != (b is None) else "differs"
            return
        if math.isnan(a) or math.isnan(b):
            if not (math.isnan(a) and math.isnan(b)):
                self.text[name] = "nan"
            return
        rel = 0.0 if a == b else abs(a - b) / (scale or max(abs(a), abs(b)))
        self.rel[name] = max(self.rel.get(name, 0.0), rel)
        if floor:
            self.floor[name] = max(self.floor.get(name, 0.0), abs(a - b) / floor)

    def merge(self, other, prefix):
        """Fold ``other``'s moves in, each name prefixed."""
        for mine, theirs in ((self.rel, other.rel), (self.floor, other.floor)):
            for name, value in theirs.items():
                mine[prefix + name] = max(mine.get(prefix + name, 0.0), value)
        self.text.update((prefix + name, value) for name, value in other.text.items())

    def cells(self):
        names = list(dict.fromkeys([*self.rel, *self.text]))
        out = []
        for name in names:
            if name in self.text:
                out.append(f"{name}={self.text[name]}")
            elif self.rel[name] > 0.0:
                floor = f"/{self.floor[name]:.3g}" if name in self.floor else ""
                out.append(f"{name}={self.rel[name]:.3g}{floor}")
        return out


def _csv_rows(text):
    header, *lines = text.splitlines()
    names = header.split(",")
    return [dict(zip(names, line.split(","))) for line in lines]


def _cell(text):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    return float(text)


def _floor(fscale, delta, order):
    from dfoq import bounds

    return float(bounds.roundoff_floor(fscale, delta, order))


def _sweep_moves(a, b):
    moves = _Moves()
    rows_a, rows_b = _csv_rows(a["fields"]["csv"]), _csv_rows(b["fields"]["csv"])
    if len(rows_a) != len(rows_b):
        moves.text["rows"] = f"{len(rows_a)}->{len(rows_b)}"
        return moves
    flips = 0
    for ra, rb in zip(rows_a, rows_b):
        delta = float(ra["delta"])
        for name in ra:
            va, vb = _cell(ra[name]), _cell(rb[name])
            if name == "poised":
                flips += va != vb
                continue
            order = CSV_ORDERS.get(name)
            moves.add(name, va, vb, None if order is None else _floor(a["fscale"], delta, order))
    if flips:
        moves.text["poised"] = f"flips={flips}"
    _tree_moves(moves, "summary", json.loads(a["fields"]["summary"]),
                json.loads(b["fields"]["summary"]))
    return moves


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _leaves(v):
    return [x for item in v for x in _leaves(item)] if isinstance(v, list) else [v]


def _tree_moves(moves, name, a, b, floor=None):
    """Every numeric leaf of two JSON values, under one name per key path;
    the entries of a list move relative to its largest entry."""
    if a == b:
        return
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            _tree_moves(moves, f"{name}.{key}", a[key], b[key], floor)
    elif isinstance(a, list) and isinstance(b, list):
        xs, ys = _leaves(a), _leaves(b)
        if len(xs) != len(ys) or not all(map(_is_number, xs + ys)):
            moves.text[name] = "differs"
            return
        scale = max(abs(v) for v in xs + ys)
        for x, y in zip(xs, ys):
            moves.add(name, x, y, floor, scale)
    elif _is_number(a) and _is_number(b):
        moves.add(name, a, b, floor)
    else:
        moves.text[name] = "differs"


def _model_moves(a, b):
    moves = _Moves()
    doc_a, doc_b = json.loads(a["fields"]["stdout"]), json.loads(b["fields"]["stdout"])
    fscale = 1.0 + abs(doc_a["c"])
    for key in dict.fromkeys([*doc_a, *doc_b]):
        order = MODEL_ORDERS.get(key)
        floor = None if order is None else _floor(fscale, a["radius"], order)
        _tree_moves(moves, key, doc_a.get(key), doc_b.get(key), floor)
    return moves


def _line_moves(a, b):
    moves = _Moves()
    nums_a = _NUMBER.findall(a["fields"]["stdout"])
    nums_b = _NUMBER.findall(b["fields"]["stdout"])
    if len(nums_a) != len(nums_b):
        moves.text["line"] = "differs"
    for i, (x, y) in enumerate(zip(nums_a, nums_b)):
        moves.add(f"number{i}", float(x), float(y))
    return moves


def compare(before, after):
    """The report lines of two :func:`load` results."""
    lines, totals, moved = [], _Moves(), 0
    for key in dict.fromkeys([*before, *after]):
        a, b = before.get(key), after.get(key)
        if a is None or b is None:
            lines.append(f"{key} only-{'after' if a is None else 'before'}")
            moved += 1
            continue
        if a["rc"] != b["rc"]:
            lines.append(f"{key} exit-{a['rc']}->{b['rc']}")
            moved += 1
            continue
        if a["fields"] == b["fields"]:
            lines.append(f"{key} same")
            continue
        moved += 1
        if "csv" in a["fields"]:
            moves = _sweep_moves(a, b)
        elif key.startswith("model|"):
            moves = _model_moves(a, b)
        else:
            moves = _line_moves(a, b)
        totals.merge(moves, ("sweep" if "csv" in a["fields"] else key.split("|")[0]) + ":")
        lines.append(" ".join([key] + (moves.cells() or ["moved"])))
    lines.append(f"# {moved} of {len(lines)} keys moved")
    lines += [f"# largest {cell}" for cell in totals.cells()]
    return lines


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if args[:1] == ["--dump"]:
        dump(pathlib.Path(args[1]))
        return 0
    if len(args) not in (1, 2):
        print(__doc__.split("\n\n")[-2], file=sys.stderr)
        return 1
    roots = [pathlib.Path(args[0]), pathlib.Path(args[1]) if len(args) == 2 else HERE.parents[1]]
    sys.path.insert(0, str(HERE.parents[1] / "src"))  # the floor rule of this checkout
    before, after = (load(root) for root in roots)
    print("\n".join(compare(before, after)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
