"""Section 9.7: inference latency and deployment requirements.

Measures wall-clock end-to-end latency in milliseconds per sample
(prompt construction through execution-guided selection) per CodeS
tier, next to the *simulated* per-sample API latency of the closed
prompting baselines.  Reproduced shape: latency grows with tier size
but stays orders of magnitude below the prompting pipelines' API
round-trips.
"""

from repro.baselines import make_baseline
from repro.config import CODES_TIERS, get_model_config
from repro.eval.harness import evaluate_parser

LIMIT = 24


def test_latency_per_tier(benchmark, spider, parsers, report):
    def run():
        rows = []
        for tier in CODES_TIERS:
            parser = parsers.sft(tier, spider)
            result = evaluate_parser(parser, spider, limit=LIMIT)
            rows.append(
                {
                    "model": f"SFT {tier}",
                    "params_B": get_model_config(tier).params_billions,
                    "latency ms/sample": round(1000 * result.mean_latency_s, 1),
                    "source": "measured",
                }
            )
        for name in ("din-sql-gpt-4", "chatgpt"):
            spec = make_baseline(name)
            rows.append(
                {
                    "model": name,
                    "params_B": ">=175",
                    "latency ms/sample": round(1000 * spec.simulated_api_latency_s),
                    "source": "simulated API",
                }
            )
        report("latency_per_tier", rows, "§9.7 — inference latency per sample")
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    measured = [row for row in rows if row["source"] == "measured"]
    # Bigger tiers search more and are therefore slower.
    assert (
        measured[-1]["latency ms/sample"] >= measured[0]["latency ms/sample"] * 0.8
    )
    # Local inference beats the prompting pipelines' API latency.
    api = [row for row in rows if row["source"] == "simulated API"]
    assert all(
        m["latency ms/sample"] < a["latency ms/sample"] for m in measured for a in api
    )
