"""Graph weight tables, with no numpy: entries keyed by graph and alphas,
their JSON form and sha256, and the table bundled with the package.

hashlib, and OpenSSL with it, loads at the first fingerprint(): reading
a table, the bundled one included, does not load it.

Stored table values carry no symmetry prefactors: the 1/n! and
1/(#Star(k))! factors are applied at operator assembly.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

from ._record import Record, _json_int, _json_number
from .graphs import AdmissibleGraph

# the package's bundled files (weights_exact.json and pi/*.json), read by path
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


class WeightEntry(Record):
    # rejected: samples dropped by the sampler.  It keeps every sample, so a
    # sampled entry reads 0; the field stays because every report and table
    # carries it.
    __slots__ = ("graph_key", "alphas", "value", "std_error", "samples", "seed", "exact", "rejected")

    def __init__(self, graph_key: str, alphas: tuple, value: float, std_error: float,
                 samples: int, seed: int, exact: Fraction | None = None, rejected: int = 0):
        if not (math.isfinite(value) and math.isfinite(std_error)):
            raise ValueError("weight of %s: value %r and std_error %r must be finite"
                             % (graph_key, value, std_error))
        if exact is not None and type(exact) not in (int, Fraction):
            raise ValueError("exact weight of %s must be None, an int or a Fraction: %r" % (graph_key, exact))
        if exact is not None and float(exact) != value:
            raise ValueError("value %r of %s is not its exact weight %s" % (value, graph_key, exact))
        if std_error < 0:
            raise ValueError("std_error must be >= 0")
        if exact is None and samples <= 0:
            raise ValueError("Monte Carlo entries need samples > 0")
        if exact is not None and samples != 0:
            raise ValueError("exact entries carry samples = 0")
        self._assign(graph_key, alphas, value, std_error, samples, seed, exact, rejected)

    def to_json(self) -> dict:
        return {
            "graph": self.graph_key,
            "alphas": list(self.alphas),
            "value": self.value,
            "std_error": self.std_error,
            "samples": self.samples,
            "seed": self.seed,
            "exact": None if self.exact is None else "%d/%d" % (self.exact.numerator, self.exact.denominator),
            "rejected": self.rejected,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "WeightEntry":
        """samples, seed and rejected must be JSON integers, value, std_error
        and the alphas JSON numbers, graph a string, and exact null or a
        string p/q or p of ASCII digits with q > 0: nothing is coerced."""
        graph, exact = obj["graph"], obj.get("exact")
        if type(graph) is not str:
            raise ValueError("graph must be a string, got %r" % (graph,))
        num, slash, den = exact.partition("/") if type(exact) is str else ("", "", "")
        if exact is not None and not (num.removeprefix("-").isdecimal() and exact.isascii()
                                      and (not slash or den.isdecimal() and int(den))):
            raise ValueError("exact must be null or a string p/q, got %r" % (exact,))
        return cls(
            graph_key=graph,
            alphas=tuple(_json_number(a, "alphas") for a in obj.get("alphas", [])),
            value=_json_number(obj["value"], "value"),
            std_error=_json_number(obj.get("std_error", 0.0), "std_error"),
            samples=_json_int(obj.get("samples", 0), "samples"),
            seed=_json_int(obj.get("seed", 0), "seed"),
            exact=None if exact is None else Fraction(exact),
            rejected=_json_int(obj.get("rejected", 0), "rejected"),
        )


def _alpha_key(alphas):
    return tuple(round(float(a), 12) for a in alphas)


# where a 2-boundary star graph's 3-boundary embedding is stored
_STAR_ALPHAS = _alpha_key((0.0, 0.0, 1.0))


class WeightTable:
    __slots__ = ("entries",)

    def __init__(self, entries: dict | None = None):
        self.entries = {} if entries is None else entries

    def add(self, entry: WeightEntry):
        if entry.graph_key.split(";")[1:2] == ["2"]:
            raise ValueError("entry %s is keyed by a 2-boundary graph; store it as %s at alphas "
                             "[0.0, 0.0, 1.0]" % (entry.graph_key, entry.graph_key.replace(";2;", ";3;", 1)))
        self.entries[(entry.graph_key, _alpha_key(entry.alphas))] = entry

    def get(self, graph_key: str, alphas) -> WeightEntry | None:
        return self.entries.get((graph_key, _alpha_key(alphas)))

    def lookup_star(self, graph: AdmissibleGraph) -> WeightEntry | None:
        """Weight of a star graph: that of its 3-boundary embedding at alpha
        (0, 0, 1), whose key differs in m alone (b3 renames no target)."""
        key = graph.canonical_key()
        return self.entries.get((key.replace(";2;", ";3;", 1) if graph.m == 2 else key, _STAR_ALPHAS))

    def to_json(self) -> dict:
        items = sorted(self.entries.values(), key=lambda e: (e.graph_key, e.alphas))
        return {"entries": [e.to_json() for e in items]}

    @classmethod
    def from_json(cls, obj: dict) -> "WeightTable":
        """A second entry for one (graph, alphas) is an error: which one
        counted would depend on the order of the entries.  So is a
        2-boundary key, which add refuses: lookup_star reads a star weight's embedding."""
        table = cls()
        for item in obj.get("entries", []):
            entry = WeightEntry.from_json(item)
            if table.get(entry.graph_key, entry.alphas) is not None:
                raise ValueError("repeated entry for %s at alphas %s" % (entry.graph_key, list(entry.alphas)))
            table.add(entry)
        return table

    def save(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    def fingerprint(self) -> str:
        """sha256 of the canonical JSON serialization."""
        import hashlib

        blob = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    @classmethod
    def builtin(cls) -> "WeightTable":
        """Calibrated exact table shipped with the package."""
        with open(os.path.join(DATA_DIR, "weights_exact.json"), "rb") as fh:
            return cls.from_json(json.load(fh))

    def provenance(self) -> dict:
        kinds = {"exact": 0, "monte_carlo": 0}
        for e in self.entries.values():
            kinds["exact" if e.exact is not None else "monte_carlo"] += 1
        return kinds
