"""Ergodicity toolkit for nonlinear Markov chains and mean-field
particle systems: total variation machinery, Dobrushin-style grid
certificates, sharpness counterexamples, and diagnostics for weakly
interacting diffusions.

The API lives in the submodules (``nlmarkov.kernels``,
``nlmarkov.ergodicity``, ``nlmarkov.mckean_vlasov`` and so on); the
package itself only carries the version.
"""

__version__ = "0.1.0"
