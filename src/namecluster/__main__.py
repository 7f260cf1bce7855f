"""The program: ``python -m namecluster`` and the installed ``namecluster``
script both call ``run``; ``cli.main`` is the in-process API."""

import gc
import sys

from .cli import main


def run():
    """Run the CLI on ``sys.argv`` and exit with its code.

    stdout writes a character that its encoding lacks as a backslash escape,
    as Python's stderr does, where it would end the run with an error.

    Every object still held when ``main`` returns is only freed by the
    interpreter's exit. Frozen into the collector's permanent generation,
    they give the shutdown collections nothing to walk, which saves several
    milliseconds of CPU a run. atexit handlers, the final flush of stdout
    and stderr, and the exit code stay Python's own.
    """
    sys.stdout.reconfigure(errors="backslashreplace")
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
