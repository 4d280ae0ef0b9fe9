"""The alphaseq benchmark; ``python3 perfbench/run.py --help`` runs it."""
