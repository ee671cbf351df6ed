"""Run configuration: a flat key=value file that pins every knob.

The same config must reproduce byte-identical CSV/JSON outputs, so all
sampling ladders are canonical and no environment variable is read.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

K_LADDER = (10, 20, 40, 70, 100, 140, 200)
M_LADDER = (8, 16, 32, 64, 128, 256)


@dataclass
class RunConfig:
    theory: str = "q"  # q = base arithmetic, pa = with induction
    numeral_mode: str = "binary"
    seed: int = 2026
    desk_cap: int = 24
    pool_cap: int = 600_000
    node_cap: int = 300_000
    bench_k: str = "10:200"
    bench_m: str = "8:256"
    fixed_k: int = 50
    fixed_m: int = 16
    deterministic: bool = False
    out: str = ""

    def validate(self) -> None:
        if self.theory not in ("q", "pa"):
            raise ValueError(f"unknown theory {self.theory!r} (expected 'q' or 'pa')")
        if self.numeral_mode not in ("binary", "unary"):
            raise ValueError(f"unknown numeral mode {self.numeral_mode!r}")
        for name in ("seed", "desk_cap", "pool_cap", "node_cap", "fixed_k", "fixed_m"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        parse_points(self.bench_k, K_LADDER)
        parse_points(self.bench_m, M_LADDER)


def dumps(cfg: RunConfig) -> str:
    lines = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, bool):
            v = "true" if v else "false"
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def loads(text: str) -> RunConfig:
    cfg = RunConfig()
    types = {f.name: f.type for f in fields(cfg)}
    for ln, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {ln}: expected 'key = value', got {line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in types:
            raise ValueError(f"line {ln}: unknown key {key!r}")
        current = getattr(cfg, key)
        if isinstance(current, bool):
            if val not in ("true", "false"):
                raise ValueError(f"line {ln}: {key} must be true or false")
            setattr(cfg, key, val == "true")
        elif isinstance(current, int):
            try:
                setattr(cfg, key, int(val))
            except ValueError:
                raise ValueError(f"line {ln}: {key} must be an integer, got {val!r}") from None
        else:
            setattr(cfg, key, val)
    cfg.validate()
    return cfg


def parse_points(spec: str, ladder: tuple[int, ...]) -> list[int]:
    """'lo:hi' selects the canonical ladder points in [lo, hi] (endpoints
    forced in); 'a,b,c' is taken literally."""
    spec = spec.strip()
    if ":" in spec:
        lo_s, _, hi_s = spec.partition(":")
        lo, hi = int(lo_s), int(hi_s)
        if lo > hi:
            raise ValueError(f"empty range {spec!r}")
        pts = [p for p in ladder if lo <= p <= hi]
        if not pts or pts[0] != lo:
            pts.insert(0, lo)
        if pts[-1] != hi:
            pts.append(hi)
        return pts
    pts = [int(p) for p in spec.split(",") if p.strip()]
    if not pts:
        raise ValueError(f"no sample points in {spec!r}")
    return pts
