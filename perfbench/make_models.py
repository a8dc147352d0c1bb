"""Regenerate the fixed checkpoints that the ensemble-beam workload decodes.

Trains one 2+2 context model on a synthetic pronoun corpus through the
ctxnmt CLI and stores its four savepoints in perfbench/models/, together with
their SHA-256 sums in perfbench/models/SHA256SUMS.  run.py refuses to start
ensemble-beam when a checkpoint is missing or its digest differs, so a change
to training can never change what that workload decodes.

Run from the repository root:  python3 perfbench/make_models.py
"""

import contextlib
import hashlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODELS = Path(__file__).resolve().parent / "models"
SEED = 20170823
NUM_DOCS = 400


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from ctxnmt.cli import main as ctxnmt_main

    def call(*args):
        with contextlib.redirect_stdout(io.StringIO()):
            code = ctxnmt_main([str(a) for a in args])
        if code != 0:
            raise SystemExit("ctxnmt %s exited %d" % (args[0], code))

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        work = Path(tmp)
        call("synth", "--out", work, "--num-docs", NUM_DOCS, "--units-per-doc", 8, "--seed", SEED)
        call("prepare", "--source", work / "synth.src", "--target", work / "synth.trg",
             "--docs", work / "synth.docs", "--mode", "2+2", "--out", work, "--prefix", "ext")
        call("train", "--source", work / "ext.src", "--target", work / "ext.trg", "--docs", work / "ext.docs",
             "--meta", work / "ext.meta", "--out", work / "run", "--seed", SEED, "--epochs", 2,
             "--batch-size", 16, "--embed-dim", 24, "--hidden-dim", 32, "--attention-dim", 24,
             "--learning-rate", 0.01, "--savepoints", 4)
        checkpoints = sorted((work / "run").glob("checkpoint-*.ckpt"))
        if len(checkpoints) != 4:
            raise SystemExit("expected 4 savepoints, got %d" % len(checkpoints))
        MODELS.mkdir(exist_ok=True)
        for old in MODELS.glob("*.ckpt"):
            old.unlink()
        sums = []
        for ckpt in checkpoints:
            shutil.copyfile(ckpt, MODELS / ckpt.name)
            sums.append("%s  %s\n" % (hashlib.sha256(ckpt.read_bytes()).hexdigest(), ckpt.name))
        (MODELS / "SHA256SUMS").write_text("".join(sums), encoding="utf-8")
    print("wrote %d checkpoints to %s" % (len(checkpoints), MODELS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
