"""Bias-reducing sum estimation when sampling weights are only known approximately.

Estimate sum_i x_i from samples drawn by an unknown distribution Q that is
pointwise gamma-close to a known nominal P.  The order-k estimator mixes
collision statistics so that every deviation term below order k cancels,
shrinking the inherited bias from gamma * sum|x_i| to gamma^k * sum|x_i|.

The public API is each module's names, imported from the module that
defines them (for example ``from noisysum.estimators import estimate_sum``).
"""
