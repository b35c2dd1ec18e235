"""cfbench: counterfactual explanations (whatif, moc, nice) for tabular
student-success classifiers trained under class-balancing regimes, plus the
benchmark machinery to evaluate explanation quality end-to-end. The package
re-exports nothing: import from its modules, one per pipeline stage."""
