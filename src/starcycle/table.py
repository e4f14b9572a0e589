"""Graph weight tables, with no numpy: entries keyed by graph and alphas,
their JSON form and sha256, and the table bundled with the package.

Stored table values carry no symmetry prefactors: the 1/n! and
1/(#Star(k))! factors are applied at operator assembly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .graphs import AdmissibleGraph


@dataclass(frozen=True)
class WeightEntry:
    graph_key: str
    alphas: tuple
    value: float
    std_error: float
    samples: int
    seed: int
    exact: Fraction | None = None
    # Samples dropped by the sampler.  It keeps every sample, so a sampled
    # entry reads 0; the field stays because every report and table carries it.
    rejected: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.value) and math.isfinite(self.std_error)):
            raise ValueError("weight of %s: value %r and std_error %r must be finite"
                             % (self.graph_key, self.value, self.std_error))
        if self.std_error < 0:
            raise ValueError("std_error must be >= 0")
        if self.exact is None and self.samples <= 0:
            raise ValueError("Monte Carlo entries need samples > 0")
        if self.exact is not None and self.samples != 0:
            raise ValueError("exact entries carry samples = 0")

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
        exact = obj.get("exact")
        return cls(
            graph_key=obj["graph"],
            alphas=tuple(float(a) for a in obj.get("alphas", [])),
            value=float(obj["value"]),
            std_error=float(obj.get("std_error", 0.0)),
            samples=int(obj.get("samples", 0)),
            seed=int(obj.get("seed", 0)),
            exact=None if exact is None else Fraction(exact),
            rejected=int(obj.get("rejected", 0)),
        )


def _alpha_key(alphas):
    return tuple(round(float(a), 12) for a in alphas)


@dataclass
class WeightTable:
    entries: dict = field(default_factory=dict)

    def add(self, entry: WeightEntry):
        self.entries[(entry.graph_key, _alpha_key(entry.alphas))] = entry

    def get(self, graph_key: str, alphas) -> WeightEntry | None:
        return self.entries.get((graph_key, _alpha_key(alphas)))

    def lookup_star(self, graph: AdmissibleGraph) -> WeightEntry | None:
        """Weight of a 2-boundary star graph: the native half-plane entry
        when present, else its 3-boundary embedding under alpha = (0, 0, 1)."""
        key = graph.canonical_key()
        if graph.m == 2:
            native = self.get(key, ())
            if native is not None:
                return native
            key = key.replace(";2;", ";3;", 1)  # an unused b3 renames no target
        return self.get(key, (0.0, 0.0, 1.0))

    def to_json(self) -> dict:
        items = sorted(self.entries.values(), key=lambda e: (e.graph_key, e.alphas))
        return {"entries": [e.to_json() for e in items]}

    @classmethod
    def from_json(cls, obj: dict) -> "WeightTable":
        """A second entry for one (graph, alphas) is an error: which one
        counted would depend on the order of the entries."""
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
        blob = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    @classmethod
    def builtin(cls) -> "WeightTable":
        """Calibrated exact table shipped with the package."""
        from importlib.resources import files

        data = files("starcycle").joinpath("data/weights_exact.json").read_text()
        return cls.from_json(json.loads(data))

    def provenance(self) -> dict:
        kinds = {"exact": 0, "monte_carlo": 0}
        for e in self.entries.values():
            kinds["exact" if e.exact is not None else "monte_carlo"] += 1
        return kinds
