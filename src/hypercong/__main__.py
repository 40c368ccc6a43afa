"""``python -m hypercong``: the same command line as ``hypercong``."""
from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
