"""lakecdc benchmark: see README.md."""
