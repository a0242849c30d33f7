from morlext.cli import main

# Guarded: tools that walk the package import every module in it.
if __name__ == "__main__":
    raise SystemExit(main())
