"""Run one bellkit CLI command with span tracing and save the span summary.

Usage: python3 traced_cli.py SUMMARY.json <bellkit arguments...>

Behaves like ``python3 -m bellkit <arguments>`` (same stdout, stderr and exit
code) and writes the per-span summary of the call to SUMMARY.json.
"""

import json
import sys

import spans


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    recorder = spans.Recorder()
    spans.install(recorder)
    from bellkit import cli

    try:
        return cli.main(argv)
    finally:
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(spans.summarize(recorder), fh)


if __name__ == "__main__":
    raise SystemExit(main())
