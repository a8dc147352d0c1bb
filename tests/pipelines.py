"""One tiny pass of every command, at a chosen size."""


def tiny_pipeline(d: str, num_docs: int = 4, epochs: int = 2, num_merges: int = 10) -> list[list[str]]:
    """The argv of each command of a pass in directory `d` (without --out):
    synth, prepare, both BPE commands, train, a greedy and a 2-member beam-4
    translate, both score regimes, attn-stats and pronoun-eval.
    Four units per document and batch 4 make epochs * num_docs training
    steps, with savepoints halfway and at the end."""
    tiny = ["--embed-dim", "4", "--hidden-dim", "5", "--attention-dim", "3"]
    steps = epochs * num_docs
    half, last = ["%s/checkpoint-%06d.ckpt" % (d, step) for step in (round(steps / 2), steps)]
    return [
        ["synth", "--num-docs", str(num_docs), "--units-per-doc", "4", "--seed", "3", "--prefix", "s"],
        ["prepare", "--source", d + "/s.src", "--target", d + "/s.trg", "--docs", d + "/s.docs", "--mode", "2+2",
         "--prefix", "ext"],
        ["bpe-learn", "--input", d + "/s.src", d + "/s.trg", "--num-merges", str(num_merges),
         "--out-model", d + "/codes.bpe"],
        ["bpe-apply", "--model", d + "/codes.bpe", "--input", d + "/ext.src", "--output", d + "/ext.bpe.src"],
        ["train", "--source", d + "/ext.src", "--target", d + "/ext.trg", "--docs", d + "/ext.docs",
         "--meta", d + "/ext.meta", "--epochs", str(epochs), "--batch-size", "4", "--savepoints", "2"] + tiny,
        ["translate", "--checkpoint", last, "--source", d + "/ext.src", "--meta", d + "/ext.meta",
         "--prefix", "greedy", "--beam-size", "1", "--alpha", "0"],
        ["translate", "--checkpoint", half, "--checkpoint", last, "--source", d + "/ext.src",
         "--meta", d + "/ext.meta", "--prefix", "beam", "--beam-size", "4"],
        ["score", "--hyp", d + "/beam.trg", "--ref", d + "/ext.trg", "--report", d + "/plain.tsv"],
        ["score", "--hyp", d + "/beam.trg", "--ref", d + "/s.trg", "--docs", d + "/s.docs", "--regime", "extended",
         "--segment-mode", "last", "--report", d + "/extended.tsv"],
        ["attn-stats", "--attn", d + "/beam.attn.jsonl", "--model-kind", "2+2"],
        ["pronoun-eval", "--source", d + "/s.src", "--ref", d + "/s.trg", "--system", "greedy=" + d + "/greedy.trg",
         "--pronoun-forms", "sie", "--classes", "he=he,she=she,it=it,they=they"],
    ]
