"""``python -m diversitree``: the same commands as the ``diversitree`` script."""

from .cli import main

if __name__ == "__main__":
    main(prog_name="diversitree")
