"""Coherent inverse systems of random histograms on refining partitions.

The package builds chains of nested partitions, samples exchangeable
histogram laws on them (Dirichlet, Polya-tree, Gaussian, and a
deterministic escaping-mass construction), evaluates the existence and
domination conditions that govern whether the histograms converge to a
limiting measure, and diagnoses which of four phases that limit occupies.

Importing the package loads none of its modules: each public name loads
its module on first use, so a run that only samples never loads the
condition evaluators or the phase diagnostics.
"""

from importlib import import_module

#: module -> the public names it defines
_PUBLIC = {
    "conditions": "FAILS HOLDS SUFFICIENT_CONDITION_FAILS UNDETERMINED LeakageReport "
                  "Verdict dirichlet_condition dirichlet_weak_condition gaussian_conditions "
                  "leakage_counterexample polya_leakage_condition polya_tight_condition "
                  "polya_weak_condition",
    "diagnostics": "CoherenceResult DiagnosticCurve PhaseReport atomicity_statistic "
                   "classify_atomicity coherence_test domination_statistic phase_report "
                   "quadratic_variation tv_martingale_curve",
    "errors": "HistolimError NumericError ValidationError",
    "histograms": "POSITIVE PROBABILITY SIGNED Histogram HistogramStack PiecewiseDensity "
                  "PolynomialDensity project_values truncation_statistic tv_norm",
    "partitions": "Domain Partition PartitionChain dyadic_chain",
    "sampling": "path_from_histogram sample_stack",
    "streams": "RandomStream",
    "systems": "AtomicBase ConstantCovariance DiagonalCovariance DirichletMatchRule "
               "DirichletSystem GaussianSystem GreensCovariance HomogeneousRule "
               "KernelCovariance LeakageSystem LebesgueBase PointMassCovariance "
               "PolyaTreeSystem TableRule system_from_json",
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Load the module that defines public `name`, and keep the name here."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value
