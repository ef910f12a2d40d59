"""Run the command-line interface: ``python -m eccbounds <subcommand> ...``."""

from .cli import entry

if __name__ == "__main__":
    entry()
