#!/usr/bin/env python3
"""Line and function reach of src/ under a --coverage build, from gcov.

Runs `gcov --json-format --stdout` on every .gcda file under BUILD_DIR (the
library objects, the test binaries and lucidc, whichever ran), keeps the
records whose source file lies under the repository's src/, and merges them:
a line or function counts as reached when any object executed it, so header
code inlined into a test is credited to its header. Writes one compact JSON
object: per-file and total line and function reach.

  cmake --preset coverage && cmake --build --preset coverage -j
  ctest --preset coverage -j
  python3 tools/coverage_report.py build-coverage --out coverage.json \\
      --min-line-pct 89

Exit status: 0 on success, 1 when total line reach is below --min-line-pct,
2 when no coverage data was found or gcov failed.
"""
import argparse
import json
import os
import subprocess
import sys

REPO = os.path.realpath(os.path.join(os.path.dirname(__file__), ".."))
SRC = os.path.join(REPO, "src")


def gcda_files(build_dir):
    for root, _dirs, files in os.walk(build_dir):
        for name in files:
            if name.endswith(".gcda"):
                yield os.path.abspath(os.path.join(root, name))


def gcov_json(gcda, gcov):
    """Parsed gcov JSON for one .gcda (one document per line of stdout)."""
    proc = subprocess.run(
        [gcov, "--json-format", "--stdout", gcda],
        cwd=os.path.dirname(gcda), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{gcov} failed on {gcda}: {proc.stderr.strip()}")
    return [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("{")]


def pct(reached, total):
    return round(100.0 * reached / total, 2) if total else 100.0


def collect(build_dir, gcov):
    # src-relative path -> {line_number: reached}, {function: reached}
    lines, funcs = {}, {}
    version = None
    for gcda in gcda_files(build_dir):
        for doc in gcov_json(gcda, gcov):
            version = version or doc.get("gcc_version")
            cwd = doc.get("current_working_directory", "")
            for rec in doc.get("files", []):
                path = os.path.realpath(os.path.join(cwd, rec["file"]))
                if not path.startswith(SRC + os.sep):
                    continue
                rel = os.path.relpath(path, SRC)
                file_lines = lines.setdefault(rel, {})
                for ln in rec.get("lines", []):
                    n = ln["line_number"]
                    file_lines[n] = file_lines.get(n, False) or ln["count"] > 0
                file_funcs = funcs.setdefault(rel, {})
                for fn in rec.get("functions", []):
                    key = fn["name"]
                    file_funcs[key] = (file_funcs.get(key, False) or
                                       fn["execution_count"] > 0)
    return lines, funcs, version


def report(lines, funcs, version):
    files = {}
    totals = {"lines": 0, "lines_reached": 0,
              "functions": 0, "functions_reached": 0}
    for rel in sorted(lines):
        entry = {
            "lines": len(lines[rel]),
            "lines_reached": sum(lines[rel].values()),
            "functions": len(funcs.get(rel, {})),
            "functions_reached": sum(funcs.get(rel, {}).values()),
        }
        for key in totals:
            totals[key] += entry[key]
        entry["line_pct"] = pct(entry["lines_reached"], entry["lines"])
        entry["function_pct"] = pct(entry["functions_reached"],
                                    entry["functions"])
        files[rel] = entry
    totals["line_pct"] = pct(totals["lines_reached"], totals["lines"])
    totals["function_pct"] = pct(totals["functions_reached"],
                                 totals["functions"])
    return {"tool": "gcov --json-format", "gcc_version": version,
            "root": "src", "totals": totals, "files": files}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("build_dir", help="a --coverage build after its tests ran")
    ap.add_argument("--out", help="write the JSON here (default: stdout)")
    ap.add_argument("--gcov", default="gcov", help="gcov binary (default gcov)")
    ap.add_argument("--min-line-pct", type=float,
                    help="exit 1 when total line reach is below this")
    args = ap.parse_args()

    try:
        lines, funcs, version = collect(args.build_dir, args.gcov)
    except (OSError, RuntimeError) as e:
        print(f"coverage_report: {e}", file=sys.stderr)
        return 2
    if not lines:
        print(f"coverage_report: no src/ coverage data under {args.build_dir}",
              file=sys.stderr)
        return 2
    doc = report(lines, funcs, version)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)

    t = doc["totals"]
    print(f"src/ line reach {t['line_pct']}% "
          f"({t['lines_reached']}/{t['lines']}), function reach "
          f"{t['function_pct']}% ({t['functions_reached']}/{t['functions']})",
          file=sys.stderr)
    if args.min_line_pct is not None and t["line_pct"] < args.min_line_pct:
        print(f"coverage_report: line reach {t['line_pct']}% is below the "
              f"floor {args.min_line_pct}%", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
