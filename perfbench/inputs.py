"""Seeded input generator for the benchmark workloads.

Only numpy and the documented file formats are used, so the generated
files do not depend on any qcrb function signature.  Every model belongs
to a *kind* (a structure such as d=3, rank 2, p=3, q=2, random weight)
and carries an *instance* number from a fixed pool of ``POOL`` per kind.
The instance content is a pure function of (kind, instance).  The
workload seed chooses which instance fills each slot of ``small_models``
and, for every model written, a random unitary frame U (rho → U rho U†,
drho_j → U drho_j U†).  The bounds are unitarily invariant, so every
generated file stays covered by the recorded reference table
(``reference.json``) whatever seed is given, while its bytes follow the
seed.

Rank-deficient states use drho_j = rho ∘ H_j with zero-mean Hermitian
H_j: the derivative is traceless, has no kernel×kernel block, and H_j is
an exact SLD, so J_jk = Re tr(rho H_j H_k) is computed directly from H.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

POOL = 16

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class Op:
    """One benchmark operation: a qcrb argv plus what its output must show.

    ``parse`` names the output format; ``refs`` are reference-table keys
    for the printed c_h values (one per report or sweep row); ``theorem``
    is ``"gs"`` (c_h = c_gs), ``"cd"`` (c_h = c_d) or ``""``; ``in_script``
    marks the ops of the ``qcrb`` command script.
    """

    key: str
    argv: tuple
    parse: str
    expect_exit: int = 0
    refs: tuple = ()
    theorem: str = ""
    in_script: bool = False
    extra: dict = field(default_factory=dict, compare=False)


def _rng(*parts) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32("/".join(map(str, parts)).encode())])


def _pairs(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


def _real(m: np.ndarray) -> list:
    return [[float(x) for x in row] for row in np.asarray(m, dtype=float)]


def _herm(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2


# ---------------------------------------------------------------------------
# model kinds


@dataclass(frozen=True)
class RandomKind:
    d: int
    rank: int
    p: int
    q: int
    weighted: bool = False
    singular_j: bool = False

    @property
    def name(self) -> str:
        tail = ("_w" if self.weighted else "") + ("_sj" if self.singular_j else "")
        return f"rnd_d{self.d}_r{self.rank}_p{self.p}_q{self.q}{tail}"

    @property
    def theorem(self) -> str:
        return "gs" if self.q == 1 else ""

    def arrays(self, instance: int) -> tuple:
        """(rho, drho, dbeta, weight) of one pool instance."""
        rng = _rng(self.name, instance)
        d, p, q = self.d, self.p, self.q
        for _ in range(100):
            g = rng.normal(size=(d, self.rank)) + 1j * rng.normal(size=(d, self.rank))
            rho = _herm(g @ g.conj().T)
            rho = rho / np.trace(rho).real
            hs = []
            for _ in range(p):
                h = _herm(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
                hs.append(h - np.trace(rho @ h).real * np.eye(d))
            if self.singular_j:
                hs[-1] = sum(c * h for c, h in zip(rng.normal(size=p - 1), hs[:-1]))
            j = np.array([[np.trace(rho @ a @ b).real for b in hs] for a in hs])
            j = (j + j.T) / 2
            w = np.linalg.eigvalsh(j)
            # resample when the rank of J is numerically borderline
            if np.count_nonzero(w > 1e-6 * w.max()) != p - int(self.singular_j):
                continue
            if self.singular_j and np.count_nonzero(np.abs(w) > 1e-9 * w.max()) != p - 1:
                continue
            dbeta = j @ rng.normal(size=(p, q)) if self.singular_j else rng.normal(size=(p, q))
            sv = np.linalg.svd(dbeta, compute_uv=False)
            if sv.min() <= 1e-3 * sv.max():
                continue
            if self.weighted:
                gw = rng.normal(size=(q, q))
                weight = gw @ gw.T + 0.1 * np.eye(q)
            else:
                weight = np.eye(q)
            return rho, [(rho @ h + h @ rho) / 2 for h in hs], dbeta, weight
        raise RuntimeError(f"could not sample {self.name}/{instance}")


def _bloch(n) -> np.ndarray:
    return (np.eye(2) + n[0] * _SX + n[1] * _SY + n[2] * _SZ) / 2


@dataclass(frozen=True)
class FixtureKind:
    """The closed-form fixtures of the qcrb documentation at seeded parameters."""

    fixture: str
    d: int = 2

    @property
    def name(self) -> str:
        return self.fixture if self.fixture != "classical_diagonal" else f"classical_diagonal_d{self.d}"

    @property
    def theorem(self) -> str:
        return {"qubit_xy_at_z": "cd", "classical_diagonal": "gs"}.get(self.fixture, "")

    def params(self, instance: int) -> list:
        rng = _rng(self.name, instance)
        if self.fixture == "qubit_xy_at_z":
            return [float(rng.uniform(-0.9, 0.9))]
        if self.fixture == "pure_qubit_angles":
            return [float(rng.uniform(0.3, math.pi - 0.3)), float(rng.uniform(0.0, 2 * math.pi))]
        if self.fixture == "qubit_bloch":
            n = rng.normal(size=3)
            return [float(x) for x in n / np.linalg.norm(n) * rng.uniform(0.1, 0.9)]
        probs = rng.dirichlet(np.full(self.d, 2.0))
        return [float(x) for x in probs[:-1]]

    def arrays(self, instance: int) -> tuple:
        return fixture_arrays(self.fixture, self.params(instance))


def fixture_arrays(name: str, params: list) -> tuple:
    """Closed-form fixture models, as documented for ``qcrb fixtures``."""
    if name == "qubit_xy_at_z":
        (z,) = params
        return _bloch([0, 0, z]), [_SX / 2, _SY / 2], np.eye(2), np.eye(2)
    if name == "pure_qubit_angles":
        theta, phi = params
        st, ct, sp, cp = math.sin(theta), math.cos(theta), math.sin(phi), math.cos(phi)
        n = [st * cp, st * sp, ct]
        dns = ([ct * cp, ct * sp, -st], [-st * sp, st * cp, 0.0])
        drho = [(dn[0] * _SX + dn[1] * _SY + dn[2] * _SZ) / 2 for dn in dns]
        return _bloch(n), drho, np.eye(2), np.diag([1.0, st * st])
    if name == "qubit_bloch":
        return _bloch(params), [_SX / 2, _SY / 2, _SZ / 2], np.eye(3), np.eye(3)
    if name == "classical_diagonal":
        d = len(params) + 1
        rho = np.diag(np.append(params, 1.0 - sum(params))).astype(complex)
        drho = []
        for j in range(d - 1):
            dj = np.zeros((d, d), dtype=complex)
            dj[j, j], dj[d - 1, d - 1] = 1.0, -1.0
            drho.append(dj)
        return rho, drho, np.eye(d - 1), np.eye(d - 1)
    raise ValueError(f"unknown fixture {name}")


def _tangent_dim(d: int, r: int) -> int:
    """Dimension of the manifold of rank-r density matrices in dimension d."""
    return 2 * d * r - r * r - 1


def small_kinds() -> list:
    """d ∈ {2,3,4}; full, rank-1 and ⌈d/2⌉ states; p ≤ 3 with 1 ≤ q ≤ p;
    identity and random weights; singular-J kinds; p = d²−1 at d ≤ 3; and
    the four closed-form fixtures."""
    kinds = []
    for d in (2, 3, 4):
        for r in sorted({d, 1, math.ceil(d / 2)}, reverse=True):
            for p in (1, 2, 3):
                for q in range(1, p + 1):
                    if p > _tangent_dim(d, r):
                        continue
                    kinds.append(RandomKind(d, r, p, q))
                    kinds.append(RandomKind(d, r, p, q, weighted=True))
                    if q < p and p - 1 <= _tangent_dim(d, r):
                        kinds.append(RandomKind(d, r, p, q, singular_j=True))
    for q in (1, 4, 8):
        kinds.append(RandomKind(3, 3, 8, q))
    kinds += [FixtureKind("qubit_xy_at_z")] * 4
    kinds += [FixtureKind("pure_qubit_angles")] * 6
    kinds += [FixtureKind("qubit_bloch")] * 3
    kinds += [FixtureKind("classical_diagonal", d) for d in (2, 3, 4)]
    return kinds


#: (kind, instance) slots of ``large_models``: p = q = 3 at d = 8 (two
#: instances), d = 10 full rank, d = 10 and d = 12 at rank d/2, and first,
#: as the cheapest (the warm-up op), d = 8 full rank with q = 1.  The
#: instances are fixed and the seed only draws the frame, so the cost of a
#: pass, set by a few long solves, does not follow the seed.
LARGE_SLOTS = (
    (RandomKind(8, 8, 3, 1), 0),
    (RandomKind(8, 8, 3, 3), 0),
    (RandomKind(8, 8, 3, 3), 1),
    (RandomKind(10, 10, 3, 3), 0),
    (RandomKind(10, 5, 3, 3), 0),
    (RandomKind(12, 6, 3, 3), 0),
)


# ---------------------------------------------------------------------------
# writers


def _unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-random unitary (QR of a complex Gaussian, phases fixed)."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def model_dict(arrays: tuple, label: str, frame: np.random.Generator | None = None) -> dict:
    """Model file content, written in a random unitary frame when ``frame`` is given."""
    rho, drho, dbeta, weight = arrays
    if frame is not None:
        u = _unitary(frame, rho.shape[0])
        rho = _herm(u @ rho @ u.conj().T)
        drho = [_herm(u @ dj @ u.conj().T) for dj in drho]
    return {
        "dim": int(rho.shape[0]),
        "rho": _pairs(rho),
        "drho": [_pairs(dj) for dj in drho],
        "dbeta": _real(dbeta),
        "weight": _real(weight),
        "label": label,
    }


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _bounds_op(slot: str, kind, instance: int, seed: int, workdir: str, flags=("--format", "json"),
               **extra) -> Op:
    label = f"{kind.name}/{instance}"
    path = os.path.join(workdir, f"{slot}-{label.replace('/', '-')}.json")
    _write_json(path, model_dict(kind.arrays(instance), label, _rng("frame", seed, slot)))
    parse = "bounds_json" if "json" in flags else "bounds_text"
    return Op(key=f"{slot}:{label}", argv=("bounds", path) + tuple(flags), parse=parse,
              refs=(label,), theorem=kind.theorem, extra=extra)


def model_ops(slots, seed: int, workdir: str) -> list:
    """One in-process ``bounds --format json`` op per (kind, instance) slot."""
    return [_bounds_op(f"{i:03d}", kind, instance, seed, workdir) for i, (kind, instance) in enumerate(slots)]


def small_slots(seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [(kind, int(rng.integers(POOL))) for kind in small_kinds()]


SWEEPS = {
    "qubit_xy_at_z": ("sweep", "qubit_xy_at_z", "0:0.9:50"),
    "pure_qubit_angles": ("sweep", "pure_qubit_angles", "0.3:2.8:21", "--fixed", "0.7"),
}


def _povm_for(rho: np.ndarray, drho: list, dbeta: np.ndarray, rng: np.random.Generator) -> dict:
    """Random POVM with minimum-norm locally unbiased estimates at beta = 0."""
    d = rho.shape[0]
    p, q = dbeta.shape
    n = max(d * d, p + 2)
    for _ in range(100):
        raw = []
        for _ in range(n):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            raw.append(g @ g.conj().T)
        vals, vecs = np.linalg.eigh(sum(raw))
        inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
        elements = [_herm(inv_root @ a @ inv_root) for a in raw]
        design = np.array([[np.trace(m @ e).real for e in elements] for m in [rho, *drho]])
        sv = np.linalg.svd(design, compute_uv=False)
        if sv.min() <= 1e-6 * sv.max():
            continue
        rhs = np.vstack([np.zeros((1, q)), dbeta])
        estimates = np.linalg.lstsq(design, rhs, rcond=None)[0]
        return {"dim": d, "elements": [_pairs(e) for e in elements], "estimates": _real(estimates)}
    raise RuntimeError("could not sample a locally unbiased POVM")


def _rotation(theta: float) -> np.ndarray:
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


def _gaussian_files(rng: np.random.Generator) -> tuple:
    """Two-mode Gaussian shift model and a squeezed measurement CM.

    The state CM is a thermal CM under single-mode squeezers and rotations
    plus a PSD noise term, which keeps sigma + iΩ ⪰ 0.
    """
    k = 2
    s = np.zeros((2 * k, 2 * k))
    m = np.zeros((2 * k, 2 * k))
    for i in range(k):
        block = slice(2 * i, 2 * i + 2)
        r = rng.uniform(-0.6, 0.6)
        s[block, block] = _rotation(rng.uniform(0, math.pi)) @ np.diag([math.exp(r), math.exp(-r)])
        rot, r = _rotation(rng.uniform(0, math.pi)), rng.uniform(-0.8, 0.8)
        m[block, block] = rot @ np.diag([math.exp(2 * r), math.exp(-2 * r)]) @ rot.T
    nu = np.repeat(rng.uniform(1.0, 2.0, size=k), 2)
    g = rng.normal(scale=0.4, size=(2 * k, 2 * k))
    cm = s @ np.diag(nu) @ s.T + g @ g.T
    model = {
        "modes": k,
        "cm": _real((cm + cm.T) / 2),
        "djacobian": _real(rng.normal(size=(2 * k, 3))),
        "mean": [float(x) for x in rng.normal(size=2 * k)],
        "label": "gaussian_two_mode",
    }
    return model, {"cm": _real((m + m.T) / 2)}


def cli_ops(seed: int, workdir: str) -> list:
    """The fixed ``qcrb`` command script; file contents follow the seed."""
    rng = np.random.default_rng(seed)

    def pick():
        return int(rng.integers(POOL))

    ops = []
    params = ",".join(repr(x) for x in FixtureKind("qubit_bloch").params(pick()))
    # "--params=" because argparse takes a space-separated "-0.3,..." for an option
    ops.append(Op(key="fixtures_emit", argv=("fixtures", "--emit", "qubit_bloch", f"--params={params}"),
                  parse="fixture", extra={"params": params}))
    ops.append(_bounds_op("text", RandomKind(3, 2, 3, 2, weighted=True), pick(), seed, workdir, ()))
    ops.append(_bounds_op("json", RandomKind(4, 4, 3, 3), pick(), seed, workdir))
    ops.append(_bounds_op("x_opt", RandomKind(3, 3, 2, 2), pick(), seed, workdir,
                          ("--format", "json", "--include-x-opt"), q=2, x_opt_len=9))
    for name, argv in SWEEPS.items():
        rows = int(argv[2].split(":")[2])
        refs = tuple(f"sweep/{name}/{i}" for i in range(rows))
        ops.append(Op(key=f"sweep_{name}", argv=argv, parse="sweep", refs=refs,
                      theorem=FixtureKind(name).theorem))

    kind, instance = RandomKind(2, 2, 2, 2), pick()
    model = model_dict(kind.arrays(instance), f"{kind.name}/{instance}", _rng("frame", seed, "povm"))
    model_path, povm_path = os.path.join(workdir, "povm-model.json"), os.path.join(workdir, "povm.json")
    _write_json(model_path, model)
    rho = np.array([[complex(*e) for e in row] for row in model["rho"]])
    drho = [np.array([[complex(*e) for e in row] for row in m]) for m in model["drho"]]
    _write_json(povm_path, _povm_for(rho, drho, np.array(model["dbeta"]), _rng("povm", seed)))
    ops.append(Op(key="check_povm", argv=("check-povm", povm_path, model_path, "--format", "json"),
                  parse="povm", refs=(model["label"],)))

    gmodel, gmeas = _gaussian_files(_rng("gaussian", seed))
    gpath, mpath = os.path.join(workdir, "gaussian.json"), os.path.join(workdir, "measurement.json")
    _write_json(gpath, gmodel)
    _write_json(mpath, gmeas)
    ops.append(Op(key="gaussian", argv=("gaussian", gpath, "--format", "json"), parse="gaussian"))
    ops.append(Op(key="gaussian_meas", argv=("gaussian", gpath, "--measurement-cm", mpath, "--format", "json"),
                  parse="gaussian_meas"))

    bad_path = os.path.join(workdir, "malformed.json")
    text = json.dumps(model_dict(kind.arrays(pick()), "truncated"))
    with open(bad_path, "w", encoding="utf-8") as fh:
        fh.write(text[: len(text) // 2])
    ops.append(Op(key="malformed_json", argv=("bounds", bad_path), parse="none", expect_exit=1))

    # a pure qubit has a 2-dimensional tangent space, so the third target
    # component of an identity dbeta lies outside the range of J
    bad_rng = _rng("infeasible", seed)
    g = bad_rng.normal(size=(2, 1)) + 1j * bad_rng.normal(size=(2, 1))
    rho = _herm(g @ g.conj().T)
    rho = rho / np.trace(rho).real
    hs = [_herm(bad_rng.normal(size=(2, 2)) + 1j * bad_rng.normal(size=(2, 2))) for _ in range(3)]
    hs = [h - np.trace(rho @ h).real * np.eye(2) for h in hs]
    infeasible = (rho, [(rho @ h + h @ rho) / 2 for h in hs], np.eye(3), np.eye(3))
    infeasible_path = os.path.join(workdir, "infeasible.json")
    _write_json(infeasible_path, model_dict(infeasible, "infeasible"))
    ops.append(Op(key="infeasible", argv=("bounds", infeasible_path), parse="none", expect_exit=2))
    return [replace(op, in_script=True) for op in ops]


WORKLOADS = ("small_models", "large_models")


def workload_ops(workload: str, seed: int, workdir: str) -> list:
    """All ops of one pass of ``workload``; the first op is the warm-up op."""
    if workload == "small_models":
        return model_ops(small_slots(seed), seed, workdir) + cli_ops(seed, workdir)
    if workload == "large_models":
        return model_ops(LARGE_SLOTS, seed, workdir)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
