"""Run ``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``python3 perfbench/serve_traced.py SPANS_JSON serve --graph ...``

Everything after the spans path is handed to ``repro.cli.main``
unchanged, so the traced server is the shipped server.  The spans are
written when the server stops (SIGINT ends ``serve`` cleanly).
"""

import sys

import layers


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    recorder = layers.Recorder()
    layers.install(recorder)
    from repro.cli import main as cli_main
    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
