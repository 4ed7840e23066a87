"""JSON wire format: complex numbers as [re, im], matrices as nested
lists of [re, im]; descriptor and potential schemas; report encoding with
a conventions digest; atomic, deterministic output.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile

import numpy as np

from . import __version__
from .hermitian import RealFormData
from .jets import JetSpace
from . import classify as C
from . import potentials as P

CONVENTIONS = {
    "bracket": "[X,Y] = XY - YX",
    "hermitian_form": "h(X,Y) = conj(Y)^T Gram X, linear in the first slot",
    "metric_entry": "H[a][b] = h_{bar a b} = d_{z^b} d_{conj z^a} f",
    "real_part": "Re W = W + conj W",
    "curvature": "R[c][d] = -d_{conj z^d} Gamma_c",
    "frame_order": "p, e_1..e_n, q (Witt: h(p, q) = 1, h(e_j, e_j) = 1)",
    "coordinates": "index 0 = v, 1..n = z, n+1 = u",
}


def conventions_digest() -> str:
    blob = json.dumps(CONVENTIONS, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# scalars and matrices
# ---------------------------------------------------------------------------


def encode_complex(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def decode_complex(obj) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    re, im = obj
    return complex(re, im)


def encode_matrix(m: np.ndarray) -> list:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return [[encode_complex(z) for z in row] for row in m]


def decode_matrix(obj) -> np.ndarray:
    if len(obj) == 0:
        return np.zeros((0, 0), dtype=complex)
    return np.array([[decode_complex(z) for z in row] for row in obj],
                    dtype=complex)


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


def encode_descriptor(d) -> dict:
    fam = d.family
    out: dict = {"family": fam}
    if fam == "UNKNOWN":
        out["reason"] = d.reason
        return out
    if fam in ("G0", "G1", "G2", "G3"):
        out["n"] = 0
        if fam == "G3":
            out["gamma"] = encode_complex(d.gamma)
        return out
    out["n"] = d.n
    if fam == "GK":
        out["k_basis"] = [{"a": encode_complex(a), "A": encode_matrix(A)}
                          for a, A in d.k_basis]
    elif fam == "GKJL":
        out["m"] = d.m
        out["k_basis"] = [{"a2": float(a2), "A": encode_matrix(A)}
                          for a2, A in d.k_basis]
    elif fam == "GKL":
        out["m"] = d.m
        out["k_basis"] = [encode_matrix(A) for A in d.k_basis]
        out["lambdas"] = _lambdas_of(d)
    elif fam == "GK0PSI":
        out["m"] = d.m
        out["r"] = d.r
        out["k0_basis"] = [encode_matrix(A) for A in d.k0_basis]
        out["psi_images"] = [encode_matrix(A) for A in d.psi_images]
        out["lambdas"] = _lambdas_of(d)
    elif fam == "BERGER_GK":
        out["m"] = d.m
        out["k_basis"] = [{"a1": float(a1), "a2": float(a2),
                           "A": encode_matrix(A)} for a1, a2, A in d.k_basis]
        out["lambdas"] = _lambdas_of(d)
    else:
        raise ValueError(f"unknown family {fam!r}")
    return out


def _lambdas_of(d) -> list[float]:
    rf = getattr(d, "real_form", None)
    if rf is None or rf.is_trivial():
        return []
    return [float(l) for l in rf.lambdas]


def decode_descriptor(obj: dict):
    fam = obj["family"]
    if fam == "G0":
        return C.G0Descriptor()
    if fam == "G1":
        return C.G1Descriptor()
    if fam == "G2":
        return C.G2Descriptor()
    if fam == "G3":
        return C.G3Descriptor(gamma=decode_complex(obj.get("gamma", 0.0)))
    n = int(obj["n"])
    if fam == "GK":
        kb = [(decode_complex(e["a"]), decode_matrix(e["A"]))
              for e in obj.get("k_basis", [])]
        return C.GKDescriptor(n, kb)
    m = int(obj.get("m", n))
    rf = None
    lambdas = [float(l) for l in obj.get("lambdas", [])]
    if fam == "GKJL":
        kb = [(float(e["a2"]), decode_matrix(e["A"]))
              for e in obj.get("k_basis", [])]
        return C.GKJLDescriptor(n, m, kb)
    if n > m:
        rf = RealFormData.from_lambdas(lambdas, n - m)
    if fam == "GKL":
        kb = [decode_matrix(e) for e in obj.get("k_basis", [])]
        return C.GKLDescriptor(n, m, kb, real_form=rf)
    if fam == "GK0PSI":
        r = int(obj["r"])
        k0 = [decode_matrix(e) for e in obj.get("k0_basis", [])]
        psi = [decode_matrix(e) for e in obj.get("psi_images", [])]
        return C.GK0PsiDescriptor(n, m, r, k0, psi, real_form=rf)
    if fam == "BERGER_GK":
        kb = [(float(e["a1"]), float(e["a2"]), decode_matrix(e["A"]))
              for e in obj.get("k_basis", [])]
        return C.BergerGKDescriptor(n, m, kb, real_form=rf)
    raise ValueError(f"unknown family {fam!r}")


# ---------------------------------------------------------------------------
# algebra files
# ---------------------------------------------------------------------------


def decode_algebra(obj: dict):
    """An algebra file is either a descriptor or an explicit real basis."""
    from .lie import MatrixAlgebra
    if "family" in obj:
        d = decode_descriptor(obj)
        return C.build_family(d)
    n = int(obj["n"])
    basis = [decode_matrix(b) for b in obj["basis"]]
    return MatrixAlgebra(n, basis)


# ---------------------------------------------------------------------------
# potential / metric files
# ---------------------------------------------------------------------------


def build_metric_from_config(obj: dict, order: int | None = None):
    """Build a MetricJet from a potential/metric description.

    kinds: flat {n}; fc {a, b}; descriptor {descriptor}; small {tag, gamma};
    oriented_lines {variant}; ppwave {n, phi_terms}.
    """
    from .geometry import metric_from_potential
    kind = obj.get("kind")
    order = int(obj.get("order", order or 8))
    if kind == "flat":
        n = int(obj.get("n", 0))
        space = JetSpace(n + 2, order)
        f = P.fc_potential(space, 0.0, 0.0) + P.fun_potential(space, n, [])
        return metric_from_potential(f)
    if kind == "fc":
        space = JetSpace(2, order)
        f = P.fc_potential(space, decode_complex(obj.get("a", 0.0)),
                           decode_complex(obj.get("b", 0.0)))
        return metric_from_potential(f)
    if kind == "descriptor":
        d = decode_descriptor(obj["descriptor"])
        return metric_from_potential(P.build_potential(d, order=order))
    if kind == "small":
        gamma = decode_complex(obj.get("gamma", 1.0))
        return P.small_dim_metric(obj["tag"], order=order, gamma=gamma)
    if kind == "oriented_lines":
        return P.oriented_lines_metric(order=order,
                                       variant=obj.get("variant", "hermitized"))
    if kind == "ppwave":
        n = int(obj.get("n", 1))
        space = JetSpace(n + 2, order)
        phi = space.zero()
        for term in obj["phi_terms"]:
            t = space.constant(decode_complex(term["coeff"]))
            zp = term.get("z", [0] * n)
            for j, p in enumerate(zp):
                for _ in range(int(p)):
                    t = t * space.variable(1 + j)
            for _ in range(int(term.get("u", 0))):
                t = t * space.variable(n + 1)
            for _ in range(int(term.get("ubar", 0))):
                t = t * space.conj_variable(n + 1)
            phi = phi + t
        return metric_from_potential(P.ppwave_potential(space, n, phi))
    raise ValueError(f"unknown potential kind {kind!r}")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def jsonable(obj):
    """Recursively convert dataclasses / numpy values to JSON-safe data."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, complex):
        return encode_complex(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.complexfloating):
        return encode_complex(complex(obj))
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return encode_matrix(obj)
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        if hasattr(obj, "family") and hasattr(obj, "__dataclass_fields__") \
                and type(obj).__name__.endswith("Descriptor"):
            return encode_descriptor(obj)
        return {f.name: jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return repr(obj)


def make_report(command: str, payload: dict, tolerances: dict | None = None) -> dict:
    return {
        "command": command,
        "version": __version__,
        "conventions": CONVENTIONS,
        "conventions_digest": conventions_digest(),
        "tolerances": tolerances or {},
        "result": jsonable(payload),
    }


def dump_json(obj: dict, path: str | None) -> str:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path:
        d = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    return text


def load_json(path: str) -> dict:
    """A JSON file whose top level is an object; anything else is a ValueError."""
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: the top level must be a JSON object, "
                         f"not {json.dumps(obj)[:40]}")
    return obj


def compare_expected(expected, actual, tol: float = 1e-9, path: str = "") -> list[str]:
    """Recursive subset comparison: every key in `expected` must match
    `actual` within `tol` for numeric leaves.  Returns mismatch messages."""
    errs: list[str] = []
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected object, got {type(actual).__name__}"]
        for k, v in expected.items():
            if k not in actual:
                errs.append(f"{path}.{k}: missing")
            else:
                errs.extend(compare_expected(v, actual[k], tol, f"{path}.{k}"))
        return errs
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [f"{path}: list shape mismatch"]
        for i, (e, a) in enumerate(zip(expected, actual)):
            errs.extend(compare_expected(e, a, tol, f"{path}[{i}]"))
        return errs
    if isinstance(expected, bool) or isinstance(actual, bool):
        if bool(expected) != bool(actual):
            errs.append(f"{path}: expected {expected}, got {actual}")
        return errs
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        if abs(float(expected) - float(actual)) > tol:
            errs.append(f"{path}: expected {expected}, got {actual}")
        return errs
    if expected != actual:
        errs.append(f"{path}: expected {expected!r}, got {actual!r}")
    return errs
