"""``python -m spdim``: the ``spdim`` command line, also from a source checkout."""
from .cli import main

if __name__ == "__main__":
    main(prog_name="spdim")
