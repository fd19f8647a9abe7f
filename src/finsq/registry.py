"""Named metric bundles and the resolver the CLI and suites consume.

A bundle carries the metric together with its known invariants (Einstein
constant, flag curvature, Douglas flatness) so suites can decide which
checks apply and what the expected values are.  Bundles come from builtin
names, parameterized dictionaries, the warped constructor, or the linear
family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import geometry as geo
from .construct import ConstructedMetric, WarpedProductSpec, berwald_family, construct_einstein_square, flat_factor, sphere_factor
from .finsler import GeneralABMetric
from .square import phi_library, randers_phi, square_metric


class MetricResolutionError(ValueError):
    """The metric request names nothing the registry can build."""


@dataclass(frozen=True)
class MetricBundle:
    """A metric plus the invariants the suites are entitled to assume.

    expected_einstein_constant: sigma with Ric = (n-1) sigma F^2, None
    when the metric is not known to be Einstein.
    expected_characterization_constant: the constant c of the covariant
    equation b_{i|j} = c (1-b^2)[(1+2b^2) a - 3 b b] for Einstein square
    data.  Distinct from sigma: Einstein square metrics are Ricci-flat, so
    sigma = 0 while c is a homothety scale.
    expected_flag: constant flag curvature, None when not constant or
    unknown.  expected_douglas: 0.0 for metrics known to be of Douglas
    type, None otherwise.  square_data: True when F is the square of
    alpha-beta data (enables deformation and characterization suites).
    """

    name: str
    metric: GeneralABMetric
    expected_einstein_constant: Optional[float] = None
    expected_characterization_constant: Optional[float] = None
    expected_flag: Optional[float] = None
    expected_douglas: Optional[float] = None
    construction: Optional[ConstructedMetric] = None

    @property
    def square_data(self) -> bool:
        return self.metric.phi.name == "square"

    @property
    def alpha(self):
        return self.metric.alpha

    @property
    def beta(self):
        return self.metric.beta

    @property
    def dim(self):
        return self.metric.dim


def _euclidean_bundle(dim: int = 3) -> MetricBundle:
    al = geo.euclidean(dim)
    M = GeneralABMetric(al, geo.zero_form(dim), phi_library()["riemannian"], "euclidean")
    return MetricBundle("euclidean", M, expected_einstein_constant=0.0,
                        expected_flag=0.0, expected_douglas=0.0)


def _sphere_bundle(dim: int = 3, kappa: float = 1.0) -> MetricBundle:
    al = geo.sphere(dim, kappa)
    M = GeneralABMetric(al, geo.zero_form(dim), phi_library()["riemannian"],
                        f"sphere(k={kappa})")
    return MetricBundle("sphere", M, expected_einstein_constant=kappa,
                        expected_flag=kappa, expected_douglas=0.0)


def _berwald_bundle(dim: int = 4) -> MetricBundle:
    al, be = geo.berwald_data(dim)
    return MetricBundle("berwald", square_metric(al, be, "berwald"),
                        expected_einstein_constant=0.0,
                        expected_characterization_constant=1.0,
                        expected_flag=0.0, expected_douglas=0.0)


def _randers_grad_bundle(dim: int = 3, scale: float = 0.4) -> MetricBundle:
    M = GeneralABMetric(geo.euclidean(dim), geo.gradient_form(dim, scale),
                        randers_phi(), "randers-grad")
    return MetricBundle("randers-grad", M, expected_douglas=0.0)


def _randers_drift_bundle(dim: int = 3, scale: float = 0.4) -> MetricBundle:
    M = GeneralABMetric(geo.euclidean(dim), geo.drift_form(dim, scale),
                        randers_phi(), "randers-drift")
    return MetricBundle("randers-drift", M)


_BUILTINS = {
    "euclidean": _euclidean_bundle,
    "sphere": _sphere_bundle,
    "berwald": _berwald_bundle,
    "randers-grad": _randers_grad_bundle,
    "randers-drift": _randers_drift_bundle,
}


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def bundle_from_construction(cm: ConstructedMetric) -> MetricBundle:
    return MetricBundle(cm.name, cm.metric, expected_einstein_constant=0.0,
                        expected_characterization_constant=cm.expected_constant,
                        expected_flag=cm.expected_flag, expected_douglas=0.0,
                        construction=cm)


def warped_spec(spec: dict) -> WarpedProductSpec:
    """The warped-product spec of a validated {"construct": spec} request;
    `finsq construct` builds its spec here too."""
    factor_spec = spec.get("factor", {})
    ftype = factor_spec.get("type", "sphere")
    c = float(spec.get("c", 1.0))
    d = float(spec.get("d", 0.5))
    m = int(factor_spec.get("dim", int(spec.get("dim", 3)) - 1))
    if ftype == "sphere":
        kappa = float(factor_spec.get("kappa", c * c))
        factor = sphere_factor(m, kappa)
    elif ftype == "flat":
        factor = flat_factor(m)
    else:
        raise MetricResolutionError(f"unknown factor type {ftype!r}")
    t_range = spec.get("t_range")
    return WarpedProductSpec(factor, c, d, tuple(t_range) if t_range else None)


def _resolve_family(spec: dict) -> MetricBundle:
    dim = int(spec.get("dim", 3))
    c = float(spec.get("c", 1.0))
    q = spec.get("q")
    cm = berwald_family(dim, c, np.asarray(q, float) if q is not None else None)
    return bundle_from_construction(cm)


def resolve_metric(request) -> MetricBundle:
    """Build a bundle from a builtin name or a request dictionary.

    Dictionary forms:
        {"name": <builtin>, ...params}  params forwarded (dim, kappa, scale)
        {"construct": {...}}            warped-product construction
        {"family": {...}}               linear family over a flat chart
    """
    if isinstance(request, str):
        if request not in _BUILTINS:
            raise MetricResolutionError(
                f"unknown metric {request!r}; builtins: {', '.join(builtin_names())}")
        return _BUILTINS[request]()
    if not isinstance(request, dict):
        raise MetricResolutionError("metric request must be a name or an object")
    if "construct" in request:
        return bundle_from_construction(construct_einstein_square(warped_spec(request["construct"])))
    if "family" in request:
        return _resolve_family(request["family"])
    if "name" in request:
        name = request["name"]
        if name not in _BUILTINS:
            raise MetricResolutionError(
                f"unknown metric {name!r}; builtins: {', '.join(builtin_names())}")
        params = {k: v for k, v in request.items() if k != "name"}
        try:
            return _BUILTINS[name](**params)
        except TypeError as exc:
            raise MetricResolutionError(f"bad parameters for {name!r}: {exc}") from exc
    raise MetricResolutionError("metric object needs one of: name, construct, family")
