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
from .config import DEFAULT_TOL
from .hermitian import RealFormData, WittMetric
from .jets import Jet, JetSpace, check_order
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


def _check(obj, kind, what: str):
    """obj when it is of the given JSON kind (a bool is no number), else a
    ValueError naming what was expected."""
    if isinstance(obj, kind) and not isinstance(obj, bool):
        return obj
    raise ValueError(f"expected {what}, got {json.dumps(obj, default=repr)[:40]}")


def _items(obj: dict, key: str, kind=None) -> list:
    """The list under key (empty if absent), each item checked to be of kind."""
    items = _check(obj.get(key, []), list, f"a list {key}")
    return items if kind is None else [_check(e, kind, f"items of {key}") for e in items]


def _natural(k, what: str) -> int:
    """k when it is an integer >= 0, else a ValueError."""
    if _check(k, int, f"an integer {what}") < 0:
        raise ValueError(f"{what} must be at least 0, not {k}")
    return k


def _number(obj, what: str) -> float:
    """obj as a finite float: json also reads NaN, Infinity, 1e999 and
    integers too large for a float."""
    x = _check(obj, (int, float), what)
    try:
        value = float(x)
    except OverflowError:
        value = np.inf
    if not abs(value) < np.inf:
        raise ValueError(f"expected a finite number, got {str(x)[:40]}")
    return value


def decode_complex(obj) -> complex:
    """A number, or a pair [re, im] of numbers."""
    if isinstance(obj, list) and len(obj) == 2:
        return complex(_number(obj[0], "a number"), _number(obj[1], "a number"))
    return complex(_number(obj, "a number or a pair of numbers"))


def encode_matrix(m: np.ndarray) -> list:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return [[encode_complex(z) for z in row] for row in m]


def decode_matrix(obj) -> np.ndarray:
    if _check(obj, list, "a matrix as a list of rows") == []:
        return np.zeros((0, 0), dtype=complex)
    return np.array([[decode_complex(z) for z in _check(row, list, "a matrix row")]
                     for row in obj], dtype=complex)


def _square(obj, size: int) -> np.ndarray:
    M = decode_matrix(obj)
    if M.shape != (size, size):
        raise ValueError(f"expected a {size}x{size} matrix, got shape {M.shape}")
    return M


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
        out["k_basis"] = [{"a2": complex(a).imag, "A": encode_matrix(A)}
                          for a, A in d.k_basis]
    elif fam == "GKL":
        out["m"] = d.m
        out["k_basis"] = [encode_matrix(A) for _, A in d.k_basis]
        out["lambdas"] = _lambdas_of(d)
    elif fam == "GK0PSI":
        out["m"] = d.m
        out["r"] = d.r
        out["k0_basis"] = [encode_matrix(A) for A in d.k0_basis]
        out["psi_images"] = [encode_matrix(A) for A in d.psi_images]
        out["lambdas"] = _lambdas_of(d)
    elif fam == "BERGER_GK":
        out["m"] = d.m
        out["k_basis"] = [{"a1": complex(a).real, "a2": complex(a).imag,
                           "A": encode_matrix(A)} for a, A in d.k_basis]
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
    fam = _check(obj, dict, "a descriptor object")["family"]
    if fam in ("G0", "G1", "G2", "G3"):
        gamma = decode_complex(obj.get("gamma", 0.0)) if fam == "G3" else 0.0
        return C.N0Descriptor(fam, gamma)
    n = _natural(obj["n"], "n")
    if fam == "GK":
        kb = [(decode_complex(e["a"]), _square(e["A"], n))
              for e in _items(obj, "k_basis", dict)]
        return C.KLDescriptor(n, n, kb)
    m = _natural(obj.get("m", n), "m")
    lambdas = [_number(l, "a number") for l in _items(obj, "lambdas")]
    rf = RealFormData.from_lambdas(lambdas, n - m) if n > m else None
    if fam == "GK0PSI":
        r = _natural(obj["r"], "r")
        k0 = [_square(e, r) for e in _items(obj, "k0_basis")]
        psi = [_square(e, r) for e in _items(obj, "psi_images")]
        return C.GK0PsiDescriptor(n, m, r, k0, psi, real_form=rf)
    if fam == "GKJL":
        kb = [(1j * _real(e, "a2"), _square(e["A"], m)) for e in _items(obj, "k_basis", dict)]
    elif fam == "GKL":
        kb = [(0j, _square(e, m)) for e in _items(obj, "k_basis")]
    elif fam == "BERGER_GK":
        kb = [(complex(_real(e, "a1"), _real(e, "a2")), _square(e["A"], m))
              for e in _items(obj, "k_basis", dict)]
    else:
        raise ValueError(f"unknown family {fam!r}")
    d = C.KLDescriptor(n, m, kb, real_form=rf)
    if d.family != fam:
        raise ValueError(f"the descriptor declares family {fam}, but its data give {d.family}")
    return d


def _real(entry: dict, key: str) -> float:
    """entry[key] as a float, when it is a number."""
    return _number(entry[key], f"a number {key}")


# ---------------------------------------------------------------------------
# algebra files
# ---------------------------------------------------------------------------


def decode_algebra(obj: dict):
    """An algebra file is either a descriptor or an explicit real basis of
    matrices in u(1,n+1) of the Witt frame."""
    from .lie import MatrixAlgebra
    if "family" in obj:
        d = decode_descriptor(obj)
        return C.build_family(d)
    n = _natural(obj["n"], "n")
    basis = [_square(b, n + 2) for b in _check(obj["basis"], list, "a list basis")]
    if basis and not WittMetric(n).is_anti_hermitian(np.array(basis)):
        raise ValueError(f"a basis matrix is not in u(1,{n + 1}) of the Witt frame")
    return MatrixAlgebra(n, basis)


# ---------------------------------------------------------------------------
# potential / metric files
# ---------------------------------------------------------------------------


# The largest n of a potential or metric file: at n = 16 and the default
# order 8, the full-algebra descriptor's ppwave verdict takes about 6 s on
# one core of a 2-core x86 machine.
MAX_METRIC_N = 16


def _metric_n(n: int) -> int:
    if n > MAX_METRIC_N:
        raise ValueError(f"a potential or metric file takes n <= {MAX_METRIC_N}, not {n}")
    return n


def build_metric_from_config(obj: dict, order: int | None = None):
    """Build a MetricJet from a potential/metric description, at the jet
    order `order` if given, else the file's `order`, else 8.

    kinds: flat {n}; fc {a, b}; descriptor {descriptor}, whose G1, G2 and G3
    are the small metrics; small {tag, gamma};
    oriented_lines {variant}; ppwave {n, phi_terms}.
    """
    from .geometry import metric_from_potential
    kind = obj.get("kind")
    if order is None:
        order = _check(obj.get("order", 8), int, "an integer order")
    if order < 2:
        raise ValueError(f"the order must be at least 2, not {order}")
    check_order(order)
    if kind == "flat":
        n = _metric_n(_natural(obj.get("n", 0), "n"))
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
        _metric_n(d.n)
        if d.family in ("G1", "G2", "G3"):
            tag = {"G1": "g1", "G2": "g2", "G3": "g3gamma" if d.gamma != 0 else "g3zero"}
            return P.small_dim_metric(tag[d.family], order=order, gamma=d.gamma)
        return metric_from_potential(P.build_potential(d, order=order))
    if kind == "small":
        gamma = decode_complex(obj.get("gamma", 1.0))
        return P.small_dim_metric(obj["tag"], order=order, gamma=gamma)
    if kind == "oriented_lines":
        return P.oriented_lines_metric(order=order,
                                       variant=obj.get("variant", "hermitized"))
    if kind == "ppwave":
        n = _metric_n(_natural(obj.get("n", 1), "n"))
        space = JetSpace(n + 2, order)
        phi = space.zero()
        for term in _check(obj["phi_terms"], list, "a list phi_terms"):
            c = decode_complex(_check(term, dict, "phi terms as objects")["coeff"])
            z = [_natural(p, "z exponent") for p in _items(term, "z")]
            u, ub = _natural(term.get("u", 0), "u"), _natural(term.get("ubar", 0), "ubar")
            if len(z) > n:
                raise ValueError(f"a phi term takes at most n = {n} exponents of z")
            if c != 0:
                I, J = (0, *z, *[0] * (n - len(z)), u), (0,) * (n + 1) + (ub,)
                phi = phi + Jet(n + 2, order, {(I, J): c})
        return metric_from_potential(P.ppwave_potential(space, n, phi))
    raise ValueError(f"unknown potential kind {kind!r}")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def jsonable(obj):
    """Recursively convert dataclasses / numpy values to JSON-safe data."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (complex, np.complexfloating)):
        return encode_complex(obj)
    if isinstance(obj, np.generic):
        return obj.item()  # numpy bool, integer or float as its Python value
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return encode_matrix(obj)
        return obj.tolist()
    if isinstance(obj, C.DESCRIPTORS):
        return encode_descriptor(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
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
    """The report as text, also written atomically to path if given; a NaN
    or infinite number is a ValueError, so no report holds one."""
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
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


def compare_expected(expected, actual, path: str = "") -> list[str]:
    """Recursive subset comparison: every key in `expected` must match
    `actual` within rank_rel, absolute, for numeric leaves.  Returns mismatch
    messages."""
    errs: list[str] = []
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected object, got {type(actual).__name__}"]
        for k, v in expected.items():
            if k not in actual:
                errs.append(f"{path}.{k}: missing")
            else:
                errs.extend(compare_expected(v, actual[k], f"{path}.{k}"))
        return errs
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [f"{path}: list shape mismatch"]
        for i, (e, a) in enumerate(zip(expected, actual)):
            errs.extend(compare_expected(e, a, f"{path}[{i}]"))
        return errs
    if isinstance(expected, bool) or isinstance(actual, bool):
        if bool(expected) != bool(actual):
            errs.append(f"{path}: expected {expected}, got {actual}")
        return errs
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        if abs(float(expected) - float(actual)) > DEFAULT_TOL.rank_rel:
            errs.append(f"{path}: expected {expected}, got {actual}")
        return errs
    if expected != actual:
        errs.append(f"{path}: expected {expected!r}, got {actual!r}")
    return errs
