"""Fronthaul compression benchmark for fvq; run `python3 bench/run.py --help`."""
