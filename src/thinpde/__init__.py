"""Thin-domain reduction toolkit for Bellman-Isaacs elliptic problems.

Pipeline: validate the standing assumptions, certify the global ellipticity
condition, build the limit problem, distort coordinates where the oblique
data needs it, synthesize strict barriers, solve both the thin and the
limit problems with a monotone scheme, and measure the convergence of the
thin solutions onto the limit.

The package root exports nothing: import the module that does the work,
e.g. ``from thinpde import config, solver``.
"""
