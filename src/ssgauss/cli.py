"""Command line front end: reproducible experiments as files.

Subcommands
-----------
models       print the model catalog (table or JSON)
variance     limit variance of a (model, f) pair -> variance.json
simulate     exact increment batch -> batch.bin (+ batch.json echo)
clt          replicated experiment -> experiment.json, summary.csv
check        covariance-structure audits -> reports/<model>_checks.json
contraction  contraction norms over an n ladder -> contraction.json
report       judge a saved experiment.json as clt judged it

Exit codes: 0 all verdicts pass; 2 usage or domain error; 3 applicability
gate violated (alpha >= 2 - 1/d); 4 numerical failure or failing verdicts.

Configuration may come from a JSON file (--config); explicit flags win
over file values.  The seed falls back to the SSGAUSS_SEED environment
variable, then 0.  Every output file embeds the effective config and the
package version.  Only simulate and clt draw random numbers, so only they
take --seed and --threads; --threads bounds the workers of the sampler's
replica chunks and of the band passes of covgrid and of the oracle
(capped at the usable CPU count) and never changes any numerical result;
--threads 1 starts no thread.
contraction forms its grids on every usable CPU.  The model flags are
the parameters of the model catalog.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from ._version import __version__
from . import analysis, hermite, limitvar, montecarlo, sampler
from .errors import DomainError, GateError, NumericalError
from .models import Model, list_models, make_model

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GATE = 3
EXIT_NUMERICAL = 4

# the summary.csv columns of clt, each with the key of a time row it copies
_SUMMARY_COLUMNS = {"t": "t", "exact_var": "exact_var", "sample_var": "sample_var",
                    "se": "se_var", "kurtosis_ratio": "kurtosis_ratio",
                    "ks_stat": "ks_stat", "ks_p": "ks_p"}
# parsed attributes that steer main rather than a handler, so no config value
_NOT_CONFIG = frozenset({"command", "func", "config", "print_config"})


def _parse(convert, text, flag: str):
    """convert(text), with a malformed value reported as a usage error.  A
    config file's boolean where a number is expected, anything but a
    boolean where one is, or its float where an integer is expected, is
    malformed rather than truncated or read as true."""
    if isinstance(text, bool) != (convert is bool) or (convert is int and isinstance(text, float)):
        raise DomainError(f"malformed {flag} value {text!r}")
    try:
        return convert(text)
    except (TypeError, ValueError):
        raise DomainError(f"malformed {flag} value {text!r}") from None


def _parse_list(convert, text, flag: str) -> list:
    return [_parse(convert, v, flag) for v in str(text).split(",")]


def _get(cfg: dict, key: str, convert, default=None):
    """cfg[key] through _parse; unset, the default or else a usage error."""
    flag = "--" + key.replace("_", "-")
    if cfg.get(key) is None:
        if default is None:
            raise DomainError(f"a {flag} value is required")
        return default
    return _parse(convert, cfg[key], flag)


def _model_params() -> dict[str, list[str]]:
    """Each parameter of the model catalog, with the models that take it."""
    rows = list_models()
    return {p: [r["model"] for r in rows if p in r["params"]] for r in rows for p in r["params"]}


def _build_model(cfg: dict) -> Model:
    name = cfg.get("model")
    if not name:
        raise DomainError("a --model id is required")
    params = {k: _get(cfg, k, float) for k in _model_params() if cfg.get(k) is not None}
    return make_model(name, **params)


def _build_f(cfg: dict) -> hermite.HermiteFunction:
    fdesc = cfg.get("f")
    if not fdesc:
        raise DomainError("an --f value is required (e.g. hermite:2, even_power:2)")
    kind, _, value = str(fdesc).partition(":")
    if not isinstance(fdesc, str) or not value:
        raise DomainError(f"malformed --f value {fdesc!r}; expected kind:integer")
    kind = {"hermite": "single_hermite"}.get(kind, kind)
    return hermite.builtin_family(kind, _parse(int, value, "--f"))


def _seed_from(cfg: dict) -> int:
    if cfg.get("seed") is not None:
        return _parse(int, cfg["seed"], "--seed")
    env = os.environ.get("SSGAUSS_SEED")
    return _parse(int, env, "SSGAUSS_SEED") if env else 0


def _out_dir(cfg: dict, sub: str = "") -> Path:
    """The output directory (with its subdirectory sub), created before any
    work; a path that cannot be a directory is a usage error."""
    out = Path(cfg.get("out") or ".", sub)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DomainError(f"cannot create output directory {out}: {exc.strerror}") from None
    return out


def _read_object(path, what: str) -> dict:
    """The JSON object held in the file at path; an unreadable file or a
    JSON value other than an object is a usage error naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read {what} {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise DomainError(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(loaded, dict):
        raise DomainError(f"{what} {path} must hold a JSON object, "
                          f"not {type(loaded).__name__}")
    return loaded


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _echo(cfg: dict, extra: dict | None = None) -> dict:
    keep = {k: v for k, v in cfg.items() if v is not None}
    return {"config": keep | (extra or {}), "version": __version__}


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns a process exit code.

def cmd_models(cfg: dict) -> int:
    catalog = list_models()
    if cfg.get("json"):
        print(json.dumps(catalog, indent=2))
        return EXIT_OK
    head = f"{'model':<9} {'params':<22} {'alpha':<10} {'beta':<10} {'lam':<14} nu"
    print(head)
    print("-" * len(head))
    for row in catalog:
        params = ",".join(f"{k} in {v}" for k, v in row["params"].items()) or "-"
        print(f"{row['model']:<9} {params:<22} {str(row['alpha']):<10} "
              f"{str(row['beta']):<10} {str(row['lam']):<14} {row['nu']}")
    return EXIT_OK


def cmd_variance(cfg: dict) -> int:
    path = _out_dir(cfg) / "variance.json"
    model = _build_model(cfg)
    f = _build_f(cfg)
    rel_tol = _get(cfg, "rel_tol", float, limitvar.DEFAULT_REL_TOL)
    lv = limitvar.sigma_sq(f, model.alpha, rel_tol=rel_tol)
    echo = _echo(cfg, {"model_resolved": model.describe(), "f_resolved": f.describe()})
    _write_json(path, echo | lv)
    # the share of Var f(Z) above the chaos cut, which sigma_sq leaves out
    cut = (f"; the chaos cut leaves out {f.tail_sq / (f.l2_norm_sq + f.tail_sq):.2g} "
           f"of Var f(Z)" if f.tail_sq > 0.0 else "")
    print(f"sigma_sq = {lv['sigma_sq']:.12g}  (alpha={model.alpha}, "
          f"chaoses {list(lv['per_chaos'])}{cut}) -> {path}")
    return EXIT_OK


def cmd_simulate(cfg: dict) -> int:
    out = _out_dir(cfg)
    model = _build_model(cfg)
    n = _get(cfg, "n", int)
    N = _get(cfg, "N", int, n)
    batch = sampler.sample_batch(model, n, N, _get(cfg, "M", int), _seed_from(cfg),
                                 threads=_get(cfg, "threads", int, 1))
    sampler.write_batch(batch, out / "batch.bin")
    meta = _echo(cfg, {"model_resolved": model.describe(),
                       "n": n, "N": N, "M": batch.M, "seed": batch.seed})
    _write_json(out / "batch.json", meta | {"diagnostics": {"jitter": batch.jitter}})
    print(f"wrote {batch.M} x {N} increments -> {out / 'batch.bin'}")
    return EXIT_OK


def cmd_clt(cfg: dict) -> int:
    out = _out_dir(cfg)
    model = _build_model(cfg)
    f = _build_f(cfg)
    t_grid = _parse_list(float, _get(cfg, "t_grid", str, "1.0"), "--t-grid")
    result = montecarlo.run_experiment(
        model, f, _get(cfg, "n", int), t_grid, M=_get(cfg, "M", int, montecarlo.DEFAULT_M),
        seed=_seed_from(cfg), threads=_get(cfg, "threads", int, 1),
        all_pairs=_get(cfg, "all_pairs", bool, False),
    )
    _write_json(out / "experiment.json", result)
    with open(out / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SUMMARY_COLUMNS)
        writer.writerows([ts[key] for key in _SUMMARY_COLUMNS.values()] for ts in result["times"])
    for ts in result["times"]:
        print(f"t={ts['t']:g}: sample_var={ts['sample_var']:.6g} exact={ts['exact_var']:.6g} "
              f"kurt_ratio={ts['kurtosis_ratio']:.4f} ks_p={ts['ks_p']:.4g} "
              f"{'ok' if ts['var_ok'] and ts['kurt_ok'] and ts['ks_ok'] else 'FAIL'}")
    print(f"{'all verdicts pass' if result['passed'] else 'verdict failure'} "
          f"-> {out / 'experiment.json'}")
    return EXIT_OK if result["passed"] else EXIT_NUMERICAL


def cmd_check(cfg: dict) -> int:
    out = _out_dir(cfg, "reports")
    model = _build_model(cfg)
    if cfg.get("f"):
        try:
            limitvar.gate(_build_f(cfg).rank, model.alpha)
        except GateError as exc:
            print(f"warning: {exc}; the normal limit is not guaranteed for this f "
                  f"(checks still run)")
    reports = analysis.run_all_checks(model)
    path = out / f"{model.name.replace('-', '')}_checks.json"
    _write_json(path, _echo(cfg, {"model_resolved": model.describe()}) | {"reports": reports})
    for name, rep in reports.items():
        print(f"{name:<32} sup={rep['ratio_sup']:<12.4g} slope={rep['trend_slope']:+.4f} "
              f"{'pass' if rep['verdict'] else 'FAIL'}")
    print(f"-> {path}")
    return EXIT_OK if all(rep["verdict"] for rep in reports.values()) else EXIT_NUMERICAL


def cmd_contraction(cfg: dict) -> int:
    path = _out_dir(cfg) / "contraction.json"
    model = _build_model(cfg)
    q = _get(cfg, "q", int, 2)
    rs = _parse_list(int, _get(cfg, "r", str, "1"), "--r")
    ns = _parse_list(int, _get(cfg, "n", str, "64,128,256"), "--n")
    t = _get(cfg, "t", float, 1.0)
    report = analysis.contraction_report(model, q, ns, r_values=rs, t=t)
    _write_json(path, _echo(cfg, {"model_resolved": model.describe()}) | report)
    tvs = report["tv_bound"]
    for row in report["norms"]:
        tv = f"  tv<={tvs[row['n']]:.6g}" if row["n"] in tvs else ""
        print(f"n={row['n']:<6} q={q} r={row['r']}: {row['norm']:.8g}{tv}")
    ok = analysis.non_increasing(report)
    print(f"{'non-increasing over the n ladder' if ok else 'NOT decreasing'} -> {path}")
    return EXIT_OK if ok else EXIT_NUMERICAL


def cmd_report(cfg: dict) -> int:
    path = Path(cfg.get("input") or "experiment.json")
    saved = _read_object(path, "experiment file")
    try:
        ok = montecarlo.derive_verdicts(saved)
    except DomainError as exc:
        raise DomainError(f"experiment file {path} {exc}") from None
    # run_experiment writes a JSON boolean; a string "false" would read as a pass
    stored = saved.get("passed")
    if not isinstance(stored, bool):
        raise DomainError(f"experiment file {path} is not a saved clt run: "
                          f"missing or malformed 'passed'")
    print(f"{path}: rederived verdict = {'pass' if ok else 'fail'} "
          f"(stored: {'pass' if stored else 'fail'})")
    for ts in saved["times"]:
        print(f"  t={ts['t']:g}: sample_var={ts['sample_var']:.6g} "
              f"exact={ts['exact_var']:.6g} ks_p={ts['ks_p']:.4g}")
    if ok != stored:
        print("warning: stored verdict disagrees with rederivation")
    return EXIT_OK if ok else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# Parser and dispatch.

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="ssgauss", description=__doc__.split("\n\n")[0])
    top.add_argument("--version", action="version", version=f"ssgauss {__version__}")
    sub = top.add_subparsers(dest="command", required=True)
    model_params = _model_params()

    def common(p: argparse.ArgumentParser, seeded: bool = False) -> None:
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--print-config", action="store_true",
                       help="print the effective config and exit")
        p.add_argument("--out", help="output directory (default .)")
        p.add_argument("--model", help="model id (see `ssgauss models`)")
        for name, models in model_params.items():
            p.add_argument(f"--{name}", type=float, help=f"parameter of {', '.join(models)}")
        if seeded:
            p.add_argument("--seed", type=int, help="RNG seed (fallback: SSGAUSS_SEED, then 0)")
            p.add_argument("--threads", type=int, help="worker threads (results unaffected)")

    p = sub.add_parser("models", help="list the model catalog")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_models)

    p = sub.add_parser("variance", help="limit variance sigma^2 for (model, f)")
    common(p)
    p.add_argument("--f", help="test function, e.g. hermite:2 | even_power:2 | odd_abs_power:1")
    p.add_argument("--rel-tol", dest="rel_tol", type=float)
    p.set_defaults(func=cmd_variance)

    p = sub.add_parser("simulate", help="sample an exact increment batch")
    common(p, seeded=True)
    p.add_argument("--n", type=int, help="grid resolution (required)")
    p.add_argument("--N", type=int, help="increments per row (default n)")
    p.add_argument("--M", type=int, help="replica count (required)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("clt", help="replicated normal-limit experiment")
    common(p, seeded=True)
    p.add_argument("--f")
    p.add_argument("--n", type=int, help="grid resolution (required)")
    p.add_argument("--t-grid", dest="t_grid", help="comma list, default 1.0")
    p.add_argument("--M", type=int)
    # default None, not False, so that a config file's value survives the merge
    p.add_argument("--all-pairs", dest="all_pairs", action="store_true", default=None,
                   help="cross-covariances for every pair, not only consecutive")
    p.set_defaults(func=cmd_clt)

    p = sub.add_parser("check", help="covariance-structure audits")
    common(p)
    p.add_argument("--f", help="optional; prints an applicability warning")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("contraction", help="contraction norms over an n ladder")
    common(p)
    p.add_argument("--q", type=int)
    p.add_argument("--r", help="comma list of contraction orders (default 1)")
    p.add_argument("--n", help="comma list of grid resolutions")
    p.add_argument("--t", type=float)
    p.set_defaults(func=cmd_contraction)

    p = sub.add_parser("report", help="re-derive verdicts from experiment.json")
    p.add_argument("--input", help="path to experiment.json")
    p.set_defaults(func=cmd_report)

    return top


def _merge_config(args: argparse.Namespace) -> dict:
    """The --config file's keys under the flags given; a file that cannot be
    read, is not a JSON object or sets a key the subcommand does not define
    is a usage error."""
    cfg: dict = {}
    if getattr(args, "config", None):
        loaded = _read_object(args.config, "config file")
        unknown = sorted(set(loaded) - (set(vars(args)) - _NOT_CONFIG))
        if unknown:
            raise DomainError(f"config file {args.config} sets {', '.join(map(repr, unknown))}, "
                              f"which {args.command} does not take")
        cfg.update(loaded)
    for key, value in vars(args).items():
        if key in _NOT_CONFIG:
            continue
        if value is not None:
            cfg[key] = value
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        if getattr(args, "print_config", False):
            print(json.dumps(cfg, indent=2, default=str))
            return EXIT_OK
        return args.func(cfg)
    except GateError as exc:
        print(f"gate violation: {exc}", file=sys.stderr)
        return EXIT_GATE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
