"""``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``python3 perfbench/traced_serve.py --spans FILE serve [serve args]``.

Runs the program's own CLI unchanged; on shutdown (SIGINT) it times a cold
fixpoint for every replayed mutation, in this same process, and writes the
spans to ``FILE``.
"""

from __future__ import annotations

import sys

import layers


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--spans":
        sys.exit("usage: traced_serve.py --spans FILE serve [args]")
    tracer = layers.Tracer()
    layers.install(tracer)
    from repro.cli import main as cli_main

    code = cli_main(argv[2:])
    layers.replay_baselines(tracer)
    layers.dump(tracer, argv[1])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
