"""Numerical geometry toolkit: square-tiled flat surfaces and their
intersection profiles, the complex hyperbolic plane with its horocycles,
and operator-norm matrix balls with exact eigenvalue-branch analysis.

The API lives in the submodules ``flatsurf``, ``chplane``, ``symdom`` and
``exactpoly``; importing the package loads none of them."""
