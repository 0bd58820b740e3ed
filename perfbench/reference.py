"""An independent set-based re-check of models and formulas.

The benchmark does not take rbb's word for its own answers.  This module
re-reads model documents (the JSON form ``rbb`` prints and reads) into
plain Python sets and evaluates formulas and frame properties straight
from their definitions, without rbb's bitmask evaluators:

* ``r:phi`` holds at w when r(w) lies inside the extension of phi;
* the adequacy atom ``r`` holds at w when w is in r(w);
* ``B phi`` holds at w when the extension of phi is a member of N(w);
* ``A t. phi`` holds when phi holds with t read as each declared reason
  that is free for t in phi (rbb's substitutional reading).

Frame properties: (d) no set and its complement are both in N(w); (rb) if
r's adequacy set is in N(w), so is every superset of r(w); with sigma,
(mb) sigma's adequacy set is in N(w), (ma) if w is in sigma(w) and r's
adequacy set is in N(w) then w is in r(w), (mr) if r's adequacy set is in
N(w) then sigma(w) lies inside r(w); with sigma+, (mt) every member of
N(w) contains sigma(w).  Only the formula classes of ``rbb.syntax`` are
read from the package.
"""

from __future__ import annotations

from itertools import combinations

from rbb.syntax import Adequate, Believes, Eq, ForAll, Letter, Not, Or, Sigma, Supports

SIGMA = "sigma"


class RefModel:
    """A model document as sets: successors, neighborhoods, valuation."""

    def __init__(self, doc: dict) -> None:
        self.worlds = tuple(doc["worlds"])
        self.all = frozenset(self.worlds)
        self.succ = {
            reason: {w: frozenset(b for a, b in pairs if a == w) for w in self.worlds}
            for reason, pairs in doc["access"].items()
        }
        self.nbhd = {
            w: {frozenset(x) for x in doc["neighborhoods"].get(w, [])}
            for w in self.worlds
        }
        self.val = {w: frozenset(doc["valuation"].get(w, [])) for w in self.worlds}
        self.point = doc.get("point")

    def adequacy(self, reason: str) -> frozenset:
        return frozenset(w for w in self.worlds if w in self.succ[reason][w])


def _name(term, env: dict[str, str]) -> str:
    name = SIGMA if isinstance(term, Sigma) else term.name
    return env.get(name, name)


def free_for(s: str, var: str, f, bound: frozenset = frozenset()) -> bool:
    """No free ``var`` in ``f`` sits under a binder of ``s``."""
    if isinstance(f, ForAll):
        if f.var == var:
            return True
        return free_for(s, var, f.sub, bound | {f.var})
    if isinstance(f, Not) or isinstance(f, Believes):
        return free_for(s, var, f.sub, bound)
    if isinstance(f, Or):
        return free_for(s, var, f.left, bound) and free_for(s, var, f.right, bound)
    names = []
    if isinstance(f, (Supports, Adequate)):
        names = [f.reason]
    elif isinstance(f, Eq):
        names = [f.left, f.right]
    occurs = any(not isinstance(t, Sigma) and t.name == var for t in names)
    if isinstance(f, Supports):
        return (not occurs or s not in bound) and free_for(s, var, f.sub, bound)
    return not occurs or s not in bound


def extension(m: RefModel, f, reasons: tuple[str, ...], env=None) -> frozenset:
    env = env or {}
    if isinstance(f, Letter):
        return frozenset(w for w in m.worlds if f.name in m.val[w])
    if isinstance(f, Not):
        return m.all - extension(m, f.sub, reasons, env)
    if isinstance(f, Or):
        return extension(m, f.left, reasons, env) | extension(m, f.right, reasons, env)
    if isinstance(f, Supports):
        inside = extension(m, f.sub, reasons, env)
        row = m.succ[_name(f.reason, env)]
        return frozenset(w for w in m.worlds if row[w] <= inside)
    if isinstance(f, Adequate):
        return m.adequacy(_name(f.reason, env))
    if isinstance(f, Believes):
        inside = extension(m, f.sub, reasons, env)
        return frozenset(w for w in m.worlds if inside in m.nbhd[w])
    if isinstance(f, Eq):
        return m.all if _name(f.left, env) == _name(f.right, env) else frozenset()
    assert isinstance(f, ForAll)
    out = m.all
    for name in reasons:
        if free_for(name, f.var, f.sub):
            out &= extension(m, f.sub, reasons, {**env, f.var: name})
    return out


def holds(m: RefModel, world: str, f, reasons: tuple[str, ...]) -> bool:
    return world in extension(m, f, reasons)


def frame_ok(m: RefModel, cfg) -> bool:
    """True when the model belongs to the class of ``cfg`` (a TheoryConfig)."""
    if set(cfg.reasons) - set(m.succ):
        return False
    subsets = [
        frozenset(c) for k in range(len(m.worlds) + 1) for c in combinations(m.worlds, k)
    ]
    for w in m.worlds:
        family = m.nbhd[w]
        if any(m.all - x in family for x in family):
            return False
        believed = [r for r in cfg.reasons if m.adequacy(r) in family]
        for r in believed:
            if any(m.succ[r][w] <= x and x not in family for x in subsets):
                return False
        if not cfg.sigma:
            continue
        srow = m.succ[SIGMA][w]
        if SIGMA not in believed:
            return False
        for r in believed:
            if w in srow and w not in m.succ[r][w]:
                return False
            if not srow <= m.succ[r][w]:
                return False
        if cfg.sigma_plus and any(not srow <= x for x in family):
            return False
    return True
