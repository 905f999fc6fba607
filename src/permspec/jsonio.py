"""File formats: pattern list files, restriction keys, and the JSON form of
an equation system.

The JSON layout is shared by the ambiguous and the disjoint pipelines:

    {
      "closure_simples": [[2,4,1,3], ...],
      "disjoint": true,
      "equations": [
        {"lhs": {"delta": "", "avoid": [[...], ...], "contain": []},
         "has_one": true,
         "disjoint": true,
         "terms": [{"root": "plus" | "minus" | [..], "children": [key, ...]}]}
      ]
    }

Children reference equations through canonical restriction key strings; the
first equation defines the class itself.  Serialization sorts object keys so
a system always produces the same bytes.
"""

from __future__ import annotations

import itertools
import json

from .errors import InvalidInputError
from .perms import MINUS, PLUS, Permutation, perm
from .restrictions import (
    Equation,
    Restriction,
    RestrictionTerm,
    _delta_bars,
    restriction,
    terms_meet_provably_empty,
)
from .system import EquationSystem, SimpleSet


def restriction_key(r: Restriction) -> str:
    av = ",".join(p.compact() for p in r.avoid)
    co = ",".join(p.compact() for p in r.contain)
    return f"C{r.delta}<avoid:{av}><contain:{co}>"


def perm_to_obj(p: Permutation) -> list[int]:
    return list(p.values)


def root_to_obj(root: Permutation):
    if root == PLUS:
        return "plus"
    if root == MINUS:
        return "minus"
    return perm_to_obj(root)


def system_to_obj(system: EquationSystem) -> dict:
    return {
        "closure_simples": [perm_to_obj(p) for p in system.simples],
        "disjoint": system.all_disjoint,
        "equations": [
            {
                "lhs": {
                    "delta": lhs.delta,
                    "avoid": [perm_to_obj(p) for p in lhs.avoid],
                    "contain": [perm_to_obj(p) for p in lhs.contain],
                },
                "has_one": eq.has_one,
                "disjoint": eq.disjoint,
                "terms": [
                    {
                        "root": root_to_obj(t.root),
                        "children": [restriction_key(c) for c in t.children],
                    }
                    for t in eq.terms
                ],
            }
            for lhs, eq in system.equations.items()
        ],
    }


def system_from_obj(obj) -> EquationSystem:
    """The system a JSON object describes; InvalidInputError names the first
    missing or mistyped field, or closure_simples that no class has."""
    simples = tuple(_perm_from_obj(v) for v in _field(obj, "closure_simples", list))
    try:
        SimpleSet(simples)
    except InvalidInputError as exc:
        raise InvalidInputError(f"system JSON: closure_simples: {exc}") from None
    eobjs = _field(obj, "equations", list)
    if not eobjs:
        raise InvalidInputError("system JSON has no equations")
    lhss = []
    for k, eobj in enumerate(eobjs):
        lo = _field(eobj, "lhs", dict)
        delta = _field(lo, "delta", str)
        avoid = [_perm_from_obj(v) for v in _field(lo, "avoid", list)]
        contain = [_perm_from_obj(v) for v in _field(lo, "contain", list)]
        try:
            lhss.append(restriction(delta, avoid, contain))
        except InvalidInputError as exc:
            raise InvalidInputError(f"system JSON: equations[{k}].lhs: {exc}") from None
    by_key: dict[str, Restriction] = {}
    for r in lhss:
        key = restriction_key(r)
        if key in by_key:
            raise InvalidInputError(f"system JSON: two equations define {key}")
        by_key[key] = r
    roots = {PLUS, MINUS, *simples}
    system = EquationSystem(simples, lhss[0])
    for lhs, eobj in zip(lhss, eobjs):
        terms = []
        for tobj in _field(eobj, "terms", list):
            robj = _field(tobj, "root", (str, list))
            root = PLUS if robj == "plus" else MINUS if robj == "minus" else _perm_from_obj(robj)
            if root not in roots:
                raise InvalidInputError(
                    f"system JSON: term root {root} is neither 12, 21 nor one of closure_simples"
                )
            if _delta_bars(lhs.delta, root):
                raise InvalidInputError(
                    f"system JSON: equation [{lhs}] has a term with root {root.compact()}, "
                    "which its part excludes"
                )
            children = []
            for key in _field(tobj, "children", list):
                if not isinstance(key, str) or key not in by_key:
                    raise InvalidInputError(
                        f"system JSON: child {key!r} is not defined by any equation"
                    )
                children.append(by_key[key])
            terms.append(RestrictionTerm(root, tuple(children)))
        has_one = _field(eobj, "has_one", bool)
        # 1 is a member exactly when nothing is mandatory and 1 avoids every
        # avoided pattern
        if has_one != (not lhs.contain and all(len(e) > 1 for e in lhs.avoid)):
            verb = "is not" if has_one else "is"
            raise InvalidInputError(f"equation [{lhs}] has the wrong has_one: 1 {verb} a member")
        eq = Equation(lhs, has_one, tuple(terms), _field(eobj, "disjoint", bool))
        if eq.disjoint:
            _certify_disjoint(eq)
        system.equations[lhs] = eq
    return system


def _certify_disjoint(eq: Equation) -> None:
    """Refuse a disjoint flag the restriction algebra cannot prove.

    Terms with distinct roots are disjoint by the uniqueness of the
    decomposition, and the atom is the only part of size 1, so only pairs of
    same-root terms need a provably empty intersection.
    """
    for t1, t2 in itertools.combinations(eq.terms, 2):
        if t1.root == t2.root and not terms_meet_provably_empty(t1, t2):
            raise InvalidInputError(
                f"equation [{eq.lhs}] is marked disjoint, but its terms {t1} and {t2} "
                "may overlap"
            )


def _field(obj, name: str, kind: type | tuple[type, ...]):
    if not isinstance(obj, dict) or name not in obj:
        raise InvalidInputError(f"system JSON: missing field {name!r}")
    value = obj[name]
    if not isinstance(value, kind):
        raise InvalidInputError(f"system JSON: field {name!r} has the wrong type")
    return value


def _perm_from_obj(v) -> Permutation:
    if not isinstance(v, list) or not all(type(x) is int for x in v):
        raise InvalidInputError(f"system JSON: {v!r} is not a list of integers")
    return Permutation(v)


def dumps_system(system: EquationSystem) -> str:
    return json.dumps(system_to_obj(system), indent=2, sort_keys=True) + "\n"


def loads_system(text: str) -> EquationSystem:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InvalidInputError(f"system file is not JSON: {exc}") from None
    return system_from_obj(obj)


def parse_perm_text(text: str) -> Permutation:
    """One permutation: space-separated values, or a digit string for n <= 9."""
    try:
        return perm(text)
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse permutation {text!r}: {exc}") from exc


def read_patterns_text(text: str) -> list[Permutation]:
    """Pattern list: one permutation per line, '#' starts a comment."""
    out = []
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            out.append(parse_perm_text(body))
    return out


def read_text_file(path: str) -> str:
    """A file's contents as UTF-8 text, less one leading byte-order mark;
    any other bytes are an input error.

    The mark is stripped after decoding, so an error names the byte's
    offset in the file itself.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise InvalidInputError(
            f"{path} is not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from None


def read_patterns_file(path: str) -> list[Permutation]:
    return read_patterns_text(read_text_file(path))
