"""``python -m repro`` entry point."""

import gc

from repro.cli import main

if __name__ == "__main__":
    code = main()
    # main() has closed its sinks and stores.  What is left is the
    # process's exit, whose final collections would walk every object the
    # command made only to free it: freezing moves them out of the
    # collector's reach.  This stays out of main(), which tests and
    # in-process benchmark passes call, and which must leave their
    # interpreter's collector as it found it.
    gc.freeze()
    raise SystemExit(code)
