"""`python3 -m siglim` runs the command line."""
from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
