"""``python -m dxdy``: the command line of ``dxdy.cli``."""
if __name__ == "__main__":
    from .cli import main
    raise SystemExit(main())
