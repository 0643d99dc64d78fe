"""``python -m cacore``: the same command line as the installed ``cacore`` script."""

from .cli import app

if __name__ == "__main__":
    app()
