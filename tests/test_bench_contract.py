"""The traced benchmark wraps toolkit functions by name (perfbench/bench_trace.py
WRAPPED).  A rename or a moved import would only show as a zero per-layer
metric in a traced run; here it fails the test suite instead."""

import importlib.util
from pathlib import Path

import pytest

from ctxnmt import attnstats, cli, config, corpus, decode, metrics, model, subword

BENCH_TRACE = Path(__file__).resolve().parent.parent / "perfbench" / "bench_trace.py"
MODULES = {"cli": cli, "corpus": corpus, "subword": subword, "model": model, "decode": decode,
           "attnstats": attnstats, "metrics": metrics, "config": config}


def load_bench_trace():
    spec = importlib.util.spec_from_file_location("bench_trace", BENCH_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_trace = load_bench_trace()


@pytest.mark.parametrize("module_name, path, span", bench_trace.WRAPPED,
                         ids=["%s@%s" % (span, module) for module, _, span in bench_trace.WRAPPED])
def test_every_wrapped_name_resolves(module_name, path, span):
    owner, attr = bench_trace._resolve(MODULES, module_name, path)
    assert callable(getattr(owner, attr, None)), "%s.%s" % (module_name, path)


def test_wrapped_names_are_the_layer_functions():
    # a caller that imports a name by value must still hold the function of the layer its span names
    for module_name, path, span in bench_trace.WRAPPED:
        layer, *rest = span.split(".")
        if layer in MODULES and len(rest) == 1:
            owner, attr = bench_trace._resolve(MODULES, module_name, path)
            assert getattr(owner, attr) is getattr(MODULES[layer], rest[0]), span
