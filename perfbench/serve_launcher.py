"""Start ``repro serve`` with the layer wrappers installed (the traced run).

Usage::

    python3 perfbench/serve_launcher.py --spans OUT.jsonl -- --port 0 ...

Everything after ``--`` goes to ``repro serve`` unchanged.  The wrappers are
installed in this process before the CLI calls
``repro.service.server.run``; after the SIGTERM drain returns, the spans are
written to ``--spans``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args

    from repro.cli import main as cli_main

    from tracing import Tracer, install_core, install_service

    tracer = Tracer()
    install_core(tracer)
    install_service(tracer)
    code = cli_main(["serve", *serve_args])
    tracer.uninstall()
    tracer.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
