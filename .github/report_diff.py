"""Print the rows of a verify report that moved against another report.

usage: python .github/report_diff.py OLD.jsonl NEW.jsonl

Both files are `heisenfourier verify all --out` reports.  Check rows are
matched by suite and check name; a row is printed when its value, passed
flag or extra differs, as old -> new, with seconds left out.  Rows that
only one report has, and a changed header or status line, are printed
too.  The script only prints and exits 0: verify's own exit code is what
fails a failing row.
"""

import json
import sys

COMPARED = ("value", "passed", "extra")


def _records(path):
    """Each line of a report by its key: (suite, check) for a check row,
    the line's first field for the header and the status line."""
    out = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            rec.pop("seconds", None)
            key = f"{rec['suite']}.{rec['check']}" if "check" in rec else min(rec)
            out[key] = rec
    return out


def moved(old, new):
    """Lines old -> new for every key whose compared fields differ."""
    lines = []
    for key in list(old) + [k for k in new if k not in old]:
        a, b = old.get(key), new.get(key)
        if a is None or b is None:
            lines.append(f"{key}: {json.dumps(a)} -> {json.dumps(b)}")
        elif "check" not in a:
            if a != b:
                lines.append(f"{key}: {json.dumps(a)} -> {json.dumps(b)}")
        else:
            fields = [
                f"{name} {json.dumps(a.get(name))} -> {json.dumps(b.get(name))}"
                for name in COMPARED
                if a.get(name) != b.get(name)
            ]
            if fields:
                lines.append(f"{key}: " + "; ".join(fields))
    return lines


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    lines = moved(_records(argv[0]), _records(argv[1]))
    for line in lines:
        print(line)
    print(f"{len(lines)} report line(s) moved")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
