"""``python -m mesostab``: the command-line interface, as the ``mesostab`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
