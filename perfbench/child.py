"""One cold ``evidential`` process, started by ``run.py``.

Usage: ``child.py READY_FD SPANS_PATH ARGV...``

It imports ``evidential.cli`` the way the console script does, writes the
monotonic clock in nanoseconds to the pipe READY_FD (the moment the CLI is
ready to dispatch), then calls ``evidential.cli.main(ARGV)``.  With a
SPANS_PATH other than ``-`` it first installs the tracer's wrappers and
writes the recorded spans there when ``main`` returns.  Only ``os``,
``sys`` and ``time`` are imported before the ready mark, so the mark
measures the program's own set-up.
"""

import os
import sys
import time


def main():
    ready_fd, spans_path, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    import evidential.cli as cli

    os.write(ready_fd, b"%d" % time.monotonic_ns())
    os.close(ready_fd)
    if spans_path == "-":
        return cli.main(argv)
    import tracer

    recorder = tracer.Tracer()
    recorder.install()
    try:
        return cli.main(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
