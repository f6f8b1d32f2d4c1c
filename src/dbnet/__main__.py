"""``python -m dbnet``: the command-line driver of :mod:`dbnet.cli`."""

from .cli import main

main()
