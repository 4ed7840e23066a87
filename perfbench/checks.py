"""Verdict checkers.  Each returns a list of error strings, empty when the
verdict agrees with a closed form or with a property the paper's theorems
require.  They read only reports and plain values, never the library's own
answer to the same question, so a wrong verdict cannot check itself.
"""
from __future__ import annotations

BRACKET_RESIDUAL_MAX = 1e-8
VALIDATE_TOL = 1e-9
PPWAVE_FLAGS = ("cond1_holonomy", "cond2_real_curvature", "cond3_mixed_curvature",
                "cond4_coefficients", "cond5_potential")
CALABI_YAU_FAMILIES = set("abde")


def full_dim(n: int) -> int:
    """Real dimension of u(1, n+1)_{Cp}: C + u(n) plus C^n plus iR."""
    return n * n + 2 * n + 3


def full_curvature_dim(n: int) -> int:
    """Real dimension of the curvature space of u(1, n+1)_{Cp}:
    alpha, beta, c; N, K; symmetric T; Hermitian A; P; and R0."""
    return (5 + 4 * n + n * (n + 1) + n * n + n * n * (n + 1)
            + n * n * (n + 1) ** 2 // 4)


def family_dim(d: dict) -> int:
    """dim k + dim_R L + 1 for a descriptor file whose k-basis entries are
    linearly independent (true of every descriptor the benchmark writes)."""
    fam = d["family"]
    if fam in ("G0", "G1"):
        return 3
    if fam == "G2":
        return 2
    if fam == "G3":
        return 1 if complex(*d.get("gamma", [0.0, 0.0])) == 0 else 2
    n, m = d["n"], d.get("m", d["n"])
    if fam == "GK":
        return len(d["k_basis"]) + 2 * n + 1
    if fam in ("GKJL", "GKL", "BERGER_GK"):
        return len(d["k_basis"]) + 2 * m + (n - m) + 1
    if fam == "GK0PSI":
        r = d["r"]
        return len(d["k0_basis"]) + 2 * (m - r) + (n - m) + 2 * r + 1
    raise ValueError(f"unknown family {fam!r}")


def _exit(code, want: int = 0) -> list[str]:
    return [] if code == want else [f"exit code {code!r}, expected {want}"]


def same_descriptor(got: dict, want: dict) -> list[str]:
    """Family and the integers n, m, r agree (G3 also compares gamma)."""
    errs = []
    for key in ("family", "n", "m", "r"):
        if key in want and got.get(key) != want[key]:
            errs.append(f"{key}: got {got.get(key)!r}, expected {want[key]!r}")
    if want["family"] == "G3" and not errs:
        g, w = complex(*got["gamma"]), complex(*want.get("gamma", [0.0, 0.0]))
        if (g == 0) != (w == 0) or (w != 0 and abs(abs(g / w) - 1) > 1e-9):
            errs.append(f"gamma: got {g}, expected a real multiple of {w}")
    return errs


# -- holonomy-dense ---------------------------------------------------------

def check_dense(n: int, dim: int, stabilized: bool, family: str,
                dim_k: int, bracket_residual: float) -> list[str]:
    """A generic Walker metric has all of u(1, n+1)_{Cp} as holonomy: GK with
    k = C + u(n) (dim n^2 + 2), which at n = 0 is G1."""
    errs = []
    if dim != full_dim(n):
        errs.append(f"dim {dim}, expected {full_dim(n)}")
    if not stabilized:
        errs.append("span did not stabilize")
    want_family = "G1" if n == 0 else "GK"
    if family != want_family:
        errs.append(f"family {family}, expected {want_family}")
    elif n > 0 and dim_k != n * n + 2:
        errs.append(f"dim k {dim_k}, expected {n * n + 2}")
    if not bracket_residual <= BRACKET_RESIDUAL_MAX:
        errs.append(f"bracket residual {bracket_residual:.2e}")
    return errs


# -- verdict-mix ------------------------------------------------------------

def check_holonomy(code, res: dict, source: dict) -> list[str]:
    """Construction theorem: the potential of a descriptor has exactly that
    family (same n, m, r) as holonomy, of the family's dimension."""
    errs = _exit(code)
    errs += same_descriptor(res["descriptor"], source)
    if res["dim"] != family_dim(source):
        errs.append(f"dim {res['dim']}, expected {family_dim(source)}")
    if not res["stabilized"]:
        errs.append("span did not stabilize")
    return errs


def ppwave_expected(source: dict) -> bool:
    """A metric is a pp-wave iff its holonomy lies in the translations
    C^n |x iR; among the descriptors, that is GKL with k = 0."""
    return source["family"] == "GKL" and not source["k_basis"]


def check_ppwave(code, res: dict, expect_ppwave: bool) -> list[str]:
    """The five equivalent conditions all hold on a pp-wave and all fail on
    a metric whose holonomy leaves the translations."""
    errs = _exit(code)
    for flag in PPWAVE_FLAGS:
        if res[flag] is not expect_ppwave:
            errs.append(f"{flag} is {res[flag]!r}, expected {expect_ppwave}")
    if expect_ppwave and not res["parallel_p"]:
        errs.append("p is not parallel on a pp-wave")
    return errs


def check_validate(code, res: dict) -> list[str]:
    errs = _exit(code)
    for key in ("hermitian_residual", "kahler_residual", "inverse_residual",
                "frame_gram_residual"):
        if not res[key] < VALIDATE_TOL:
            errs.append(f"{key} {res[key]!r} not below {VALIDATE_TOL}")
    if not res["is_walker"]:
        errs.append("not in the Walker normal form")
    return errs


def check_classify(code, res: dict, source: dict) -> list[str]:
    errs = _exit(code)
    errs += same_descriptor(res["descriptor"], source)
    if res["dim"] != family_dim(source):
        errs.append(f"dim {res['dim']}, expected {family_dim(source)}")
    return errs


def check_symspace(code, res: dict, family: str) -> list[str]:
    errs = _exit(code)
    if res["jacobi"] is not True:
        errs.append("Jacobi identity fails")
    if res["g_equals_image"] is not True:
        errs.append("g is not the curvature image")
    want = family in CALABI_YAU_FAMILIES
    if res["calabi_yau"] is not want:
        errs.append(f"calabi_yau {res['calabi_yau']!r}, expected {want}")
    return errs


# -- berger-algebras --------------------------------------------------------

def check_berger(code, res: dict, *, is_berger: bool = True,
                 dim_R_space: int | None = None) -> list[str]:
    """A Berger algebra is generated by its curvature images; the no-iR
    counterexample has no curvature at all."""
    errs = _exit(code)
    if dim_R_space is not None and res["dim_R_space"] != dim_R_space:
        errs.append(f"dim_R_space {res['dim_R_space']}, expected {dim_R_space}")
    if res["is_berger"] is not is_berger:
        errs.append(f"is_berger {res['is_berger']!r}, expected {is_berger}")
    if is_berger and res["generated_dim"] != res["dim"]:
        errs.append(f"generated_dim {res['generated_dim']} != dim {res['dim']}")
    if not is_berger and res["dim_R_space"] != 0:
        errs.append(f"dim_R_space {res['dim_R_space']}, expected 0")
    return errs
