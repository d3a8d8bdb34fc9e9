"""Every search re-checks its own result with the independent verifier and
raises SelfCheckError when the verifier rejects it, also under python -O."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cwg
from cwg import SelfCheckError, analysis, core, embedding, homomorphism, search
from cwg.constructions import gen_ehss_blowup, gen_family, gen_j, gen_rk, gen_rk_minus


def _reject_embeddings(monkeypatch):
    monkeypatch.setattr(embedding, "verify_embedding", lambda pattern, host, emb: False)


def _reject_certificates(monkeypatch):
    monkeypatch.setattr(homomorphism, "verify_certificate", lambda g, cert: False)


@pytest.mark.parametrize(
    "reject, search",
    [
        (_reject_embeddings, lambda: embedding.find_embedding(gen_rk(2), gen_rk(3))),
        (_reject_embeddings, lambda: embedding.is_free(gen_rk(3), gen_family(6))),
        (_reject_embeddings, lambda: embedding.is_free(gen_rk(4), [gen_j(3).graph])),
        (_reject_certificates, lambda: homomorphism.search_hom_rk(gen_rk(3), 3)),
        (_reject_certificates, lambda: homomorphism.search_hom_rk_minus(gen_rk_minus(3), 3)),
        (_reject_certificates, lambda: homomorphism.search_hom_general(gen_rk(3), gen_rk(3))),
    ],
    ids=["find_embedding", "compiled", "generic_member", "rk", "rk_minus", "general"],
)
def test_rejected_result_raises(monkeypatch, reject, search):
    reject(monkeypatch)
    with pytest.raises(SelfCheckError):
        search()


@pytest.mark.parametrize(
    "rejected, message",
    [("general", "invalid matching certificate"), ("rk_minus", "invalid certificate")],
    ids=["matching", "rk_minus"],
)
def test_decompose_certificates_are_rechecked(monkeypatch, rejected, message):
    # analysis binds verify_certificate by name, so the patch goes there.
    original = analysis.verify_certificate
    monkeypatch.setattr(
        analysis, "verify_certificate", lambda g, cert: cert.kind != rejected and original(g, cert)
    )
    with pytest.raises(SelfCheckError, match=message):
        analysis.decompose(gen_ehss_blowup(3).graph, 3)


def test_threshold_witness_is_rechecked(monkeypatch):
    monkeypatch.setattr(search, "_reference_is_free", lambda g, family: False)
    with pytest.raises(SelfCheckError, match="threshold witness"):
        search.empirical_threshold(4, 2, "odd")


def test_ex_witness_is_rechecked(monkeypatch):
    monkeypatch.setattr(search, "_reference_is_free", lambda g, family: False)
    with pytest.raises(SelfCheckError, match="extremal witness"):
        search.compute_ex(4, gen_family(4))


def test_ex_node_hit_is_rechecked(monkeypatch):
    """A seeded clique search that reports vertices 0..o-1 where it found
    no copy through the raised pair must stop compute_ex, not prune the
    node and lower the value.  The unseeded root check keeps the real
    search."""
    original = embedding._two_level_cliques

    def false_hit(ge1, red, reds, blues, i, k, red_cand, blue_cand):
        found = original(ge1, red, reds, blues, i, k, red_cand, blue_cand)
        if found is not None or not (reds or blues):
            return found
        r = len(reds) + i
        return list(range(r)), list(range(r, r + len(blues) + k))

    monkeypatch.setattr(embedding, "_two_level_cliques", false_hit)
    with pytest.raises(SelfCheckError, match="verify_embedding"):
        search.compute_ex(5, gen_family(5))


@pytest.mark.parametrize(
    "run",
    [
        lambda: core.canonicalized(core.ColoredGraph.from_digits(3, (0, 1, 2))),
        lambda: core.enumerate_graphs(3, "isomorph_free"),
    ],
    ids=["canonicalized", "isomorph_free"],
)
def test_wrong_canonical_relabelling_raises(monkeypatch, run):
    """Reversing each minimal relabelling keeps the digits but breaks the
    claim that the relabelling gives them, on any asymmetric graph."""
    original = core._min_relabelling

    def reversed_argmins(g):
        digits, argmins = original(g)
        return digits, [perm[::-1] for perm in argmins]

    monkeypatch.setattr(core, "_min_relabelling", reversed_argmins)
    with pytest.raises(SelfCheckError, match="canonical relabelling"):
        run()


def test_checks_survive_optimize_flag():
    script = textwrap.dedent(
        """
        from cwg import SelfCheckError, analysis, embedding, homomorphism, search, gen_family, gen_rk
        from cwg.constructions import gen_ehss_blowup
        embedding.verify_embedding = lambda pattern, host, emb: False
        homomorphism.verify_certificate = lambda g, cert: False
        analysis.verify_certificate = lambda g, cert: False
        raised = 0
        for run in (
            lambda: embedding.is_free(gen_rk(3), gen_family(6)),
            lambda: homomorphism.search_hom_rk(gen_rk(3), 3),
            lambda: search.compute_ex(5, gen_family(5)),
            lambda: analysis.decompose(gen_ehss_blowup(3).graph, 3),
        ):
            try:
                run()
            except SelfCheckError:
                raised += 1
        print(raised)
        """
    )
    src = os.path.dirname(os.path.dirname(cwg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "4"


def test_no_assert_statements_in_package():
    """Re-checks are explicit raises: ``python -O`` strips assert statements."""
    found = []
    for path in sorted(Path(cwg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            "%s:%d" % (path.name, node.lineno) for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_masks_have_one_writer():
    """Outside core and embedding, a module touches the ``_ge1`` / ``_red``
    mask lists only to hand them to ``MaskHost(...)``; every write to a
    mask host goes through ``MaskHost.set``."""
    found = []
    for path in sorted(Path(cwg.__file__).parent.glob("*.py")):
        if path.name in ("core.py", "embedding.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        handed = {
            id(arg)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "MaskHost"
            for arg in node.args
        }
        found += [
            "%s:%d" % (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("_ge1", "_red")
            and id(node) not in handed
        ]
    assert found == []


def test_embeddings_are_checked_where_built():
    """Every ``Embedding(...)`` that embedding.py builds outside
    ``verify_embedding`` is passed straight to ``_checked``, so no search
    returns an embedding that the independent check has not seen."""
    path = Path(embedding.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    checked = {
        id(arg)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_checked"
        for arg in node.args
    }
    verifier = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "verify_embedding"
    )
    exempt = {id(node) for node in ast.walk(verifier)}
    built = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Embedding"
    ]
    assert built
    found = ["embedding.py:%d" % node.lineno for node in built if id(node) not in checked | exempt]
    assert found == []
