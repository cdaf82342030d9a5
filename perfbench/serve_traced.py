"""Run ``repro serve`` with the per-layer ledger installed.

Usage: ``python serve_traced.py RECORDS_PATH [repro serve options...]``

Wraps the same public functions as the benchmark's own process (see
:mod:`ledger`), then hands over to the CLI's ``serve`` command.  The
records stay in memory and are written to ``RECORDS_PATH`` when the
server exits (after a ``shutdown`` request).
"""

import sys

import ledger
from repro import cli


def main(argv) -> int:
    records, serve_args = argv[0], argv[1:]
    book = ledger.Ledger(side="server")
    ledger.install(book)
    try:
        return cli.main(["serve"] + serve_args)
    finally:
        book.dump(records)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
