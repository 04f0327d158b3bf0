"""`python -m beg_dobrushin ...` runs the begdob command line."""

from .cli import run

if __name__ == "__main__":
    run()
