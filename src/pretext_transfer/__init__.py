"""Representation-only transfer with pseudo-label pre-text training, a
collaborative-representation dictionary classifier, probability fusion and a
five-fold imbalanced-data evaluation harness."""
