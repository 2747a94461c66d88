"""Calibrated single-process benchmark of the experiment pipeline."""
