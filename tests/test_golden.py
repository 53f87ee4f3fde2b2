"""Byte-for-byte freeze of the command line's outputs.

Each case runs ``cli.main`` step by step inside a fresh working
directory, with relative paths so that the report's "file" field does
not depend on where the test runs.  Every file left in the directory is
hashed, and so is each step's exit code, standard output and standard
error.  The table below was recorded before the verifiers, decomposers
and field helpers were consolidated; any change to a JSON report, a
matrix file or a printed line fails here.  Do not edit the table to
make a change pass: a differing hash is a changed output.  The
order-325 field-type2 rows and the order-496 twin-directed row were
added later, recorded before ``exact_matmul`` exploited cyclic block
symmetry, so that its products above order 128 are frozen too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from dezakit.cli import main

# directed circulant on Z_7 with connection set {1, 2}: regular, but M^2
# takes the three off-diagonal values 0, 1 and 2
THREE_VALUED = "7 binary\n" + "".join(
    " ".join("1" if (j - i) % 7 in (1, 2) else "0" for j in range(7)) + "\n"
    for i in range(7))

# undirected circulant on Z_10 with connection set {1, 2, 8, 9}: M^2 = M M^t
# takes the off-diagonal values 0, 1 and 2
THREE_VALUED_SYMMETRIC = "10 binary\n" + "".join(
    " ".join("1" if (j - i) % 10 in (1, 2, 8, 9) else "0" for j in range(10)) + "\n"
    for i in range(10))

# transitive tournament on three vertices: out-degrees 2, 1, 0
NON_REGULAR = "3 binary\n0 1 1\n0 0 1\n0 0 0\n"


def _construct(family, *args):
    return ("construct", family, *args)


def _verify_all(path):
    return ("verify", path, "--report", f"{Path(path).stem}.json")


CASES = {
    "skew-u1": ({"classes.txt": "0 1\n2 3\n4 5\n6 7\n"}, [
        _construct("skew-hadamard", "--u", "1", "--out", "m.txt"),
        _verify_all("m.txt"),
        ("verify", "m.txt", "--as", "deza", "--report", "deza.json",
         "--children-prefix", "kids"),
        ("verify", "m.txt", "--as", "ddd", "--partition", "classes.txt",
         "--report", "ddd.json"),
        ("children", "m.txt", "--out-x", "x.txt", "--out-y", "y.txt"),
        ("decompose", "m.txt", "--mode", "b-eq-t", "--out-quotient", "q.txt"),
    ]),
    "skew-u2": ({}, [_construct("skew-hadamard", "--u", "2", "--out", "m.txt"),
                     _verify_all("m.txt")]),
    "drt-q7": ({}, [_construct("drt", "--q", "7", "--out", "m.txt"),
                    _verify_all("m.txt")]),
    "field-type2-q3-a0": ({}, [
        _construct("field-type2", "--q", "3", "--alpha", "0", "--out", "m.txt"),
        _verify_all("m.txt")]),
    "field-type2-q3-a1": ({}, [
        _construct("field-type2", "--q", "3", "--alpha", "1", "--out", "m.txt"),
        _verify_all("m.txt")]),
    "field-type2-q5-a0": ({}, [
        _construct("field-type2", "--q", "5", "--alpha", "0", "--out", "m.txt"),
        _verify_all("m.txt")]),
    "field-type2-q5-a1": ({}, [
        _construct("field-type2", "--q", "5", "--alpha", "1", "--out", "m.txt"),
        _verify_all("m.txt")]),
    "qr-design-q7": ({}, [
        _construct("qr-design", "--q", "7", "--out", "m.txt"),
        _verify_all("m.txt"),
        _construct("empty", "--n", "2", "--out", "e2.txt"),
        _construct("lex-product", "m.txt", "e2.txt", "--out", "lexed.txt"),
        ("decompose", "lexed.txt", "--mode", "b-eq-k", "--out-quotient", "q.txt"),
    ]),
    "paley-graph-q5": ({}, [_construct("paley-graph", "--q", "5", "--out", "m.txt"),
                            _verify_all("m.txt")]),
    "paley-graph-q9": ({}, [_construct("paley-graph", "--q", "9", "--out", "m.txt"),
                            _verify_all("m.txt")]),
    "empty-n4": ({}, [_construct("empty", "--n", "4", "--out", "m.txt"),
                      _verify_all("m.txt")]),
    "twin-4": ({}, [_construct("twin", "--order", "4", "--out", "t")]
               + [_verify_all(f"t{s}.txt") for s in ("_A", "_B", "_RA", "_RB")]),
    "twin-directed-4": ({}, [_construct("twin-directed", "--order", "4", "--out", "t")]
                        + [_verify_all(f"t{s}.txt") for s in ("_A", "_B", "_RA", "_RB")]),
    "twin-directed-16": ({}, [_construct("twin-directed", "--order", "16", "--out", "t")]
                         + [_verify_all(f"t{s}.txt") for s in ("_A", "_RA")]),
    "non-regular": ({"m.txt": NON_REGULAR}, [_verify_all("m.txt")]),
    "three-valued": ({"m.txt": THREE_VALUED, "sym.txt": THREE_VALUED_SYMMETRIC},
                     [_verify_all("m.txt"), _verify_all("sym.txt")]),
    "search-8-3-3-1-0": ({}, [("search", "--params", "8,3,3,1,0", "--canonical-dedup")]),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_step(argv) -> bytes:
    """Run one command; exit code, stdout and stderr as one byte record."""
    out, err = io.BytesIO(), io.BytesIO()
    out_t = io.TextIOWrapper(out, encoding="utf-8", newline="\n")
    err_t = io.TextIOWrapper(err, encoding="utf-8", newline="\n")
    with contextlib.redirect_stdout(out_t), contextlib.redirect_stderr(err_t):
        code = main(list(argv))
    out_t.flush()
    err_t.flush()
    return b"exit %d\n" % code + out.getvalue() + b"\0" + err.getvalue()


def run_case(name: str, workdir: Path) -> dict[str, str]:
    """Hashes of every step record and every file a case leaves in
    workdir, which must be the current directory."""
    inputs, steps = CASES[name]
    for fname, text in inputs.items():
        (workdir / fname).write_text(text, encoding="ascii")
    hashes = {f"step{i}": _sha(_run_step(argv)) for i, argv in enumerate(steps)}
    for path in sorted(workdir.iterdir()):
        if path.name not in inputs:
            hashes[path.name] = _sha(path.read_bytes())
    return hashes


GOLDEN = {
    'drt-q7': {
        'step0': 'c0b0bbaed78e12fd51b184900f58deabadd9747d5c9e53e9d592e9736bf3cc6b',
        'step1': 'fb70d1799a45818921a9f710417051f6552e933523240699fd2329c4ba545152',
        'm.json': 'dcfb09bac06a9c8b03971ab4920f69f667bb9d07ae7213d4ba8096735560123c',
        'm.txt': '1dd5bf9a7bc44ebd4ca9c910ecba5b9e913543bc402b7ef5c3ccbc0deafc22a4',
    },
    'empty-n4': {
        'step0': 'c0b0bbaed78e12fd51b184900f58deabadd9747d5c9e53e9d592e9736bf3cc6b',
        'step1': '976144aed879708eb6a60cb5dfc342d7345b1bef70f3477dae79fa198df1ac2c',
        'm.json': 'aa302f032ea992c60bde4c7c65f27282d3347234b68e038a7565384d5f3c38c2',
        'm.txt': '6eede8f3a8be09094ec77d0acbe2b2e31c2c86d22c2c4f352f0c0a543578573a',
    },
    'field-type2-q3-a0': {
        'step0': 'c0b0bbaed78e12fd51b184900f58deabadd9747d5c9e53e9d592e9736bf3cc6b',
        'step1': '9fc29cc430deafbb5e5963d866bef70c0ae51dfa87a310022570fc2fd46066ea',
        'm.json': 'c965972d9245e54dfc55528d12f6b8a249407bcf308e8931240d32899d48ef4e',
        'm.txt': '1ae6116be42856a330d5b9481fd5508ecc71e5998e188009d7b4548de78f2c23',
    },
    'field-type2-q3-a1': {
        'step0': 'c0b0bbaed78e12fd51b184900f58deabadd9747d5c9e53e9d592e9736bf3cc6b',
        'step1': '66d7d013472927802490465f08f42c7d0437013e61858216229574cbc17a84f2',
        'm.json': 'dabfbdfd425df1e9e94b8ef7d26ce571e2900ff176e3f2588bab56c29ad25cd3',
        'm.txt': '24952639ccba25abd8b381036e543e778bef17da017835559084460a5fccccc9',
    },
    'field-type2-q5-a0': {
        'step0': 'c0b0bbaed78e12fd51b184900f58deabadd9747d5c9e53e9d592e9736bf3cc6b',
        'step1': 'c936ae95a2fca9bd985ee7876246743d7117169eeae00ce38b170ad0ace1bf76',
        'm.json': 'e1448490574cb077005257b449596e2ad8102dab4ca6fc7db1008813790700b9',
        'm.txt': '95850cc12256688d61bee50f009e157ca2df4d9acc92e570c4dadc84326e1840',
    },
    'field-type2-q5-a1': {
        'step0': 'c0b0bbaed78e12fd51b184900f58deabadd9747d5c9e53e9d592e9736bf3cc6b',
        'step1': '170b76c29fc029cd632a83434a7bd327001cbf8ae41f4939d8c986da668c21e9',
        'm.json': '94eeeccf953a5b907c6fdd60449ac7b824a7ffb484ea709dbd77df03f9387272',
        'm.txt': 'd4609d3ac20c392806f8a440bd6064e9f5f54f30f7a32b85b74415796df7dcd3',
    },
    'non-regular': {
        'step0': '2d533add030e650b7590c317e83f3d2066c971b7090da1bf31023cfbe156fdb5',
        'm.json': '67f1a1624888734232db1cd2bb8c4e1133e973f95837a77e2ac6052164ad8e86',
    },
    'paley-graph-q5': {
        'step0': 'c0b0bbaed78e12fd51b184900f58deabadd9747d5c9e53e9d592e9736bf3cc6b',
        'step1': '48c4456c17f63906baf38a30a770e3a7b9b814fc8350337ecdbeb335547e145c',
        'm.json': '7f50b92b63fb63f3b0076d0661e716c7b5ae0663fb234af391cbfa5fc507423b',
        'm.txt': '84a3620bb652b2fffa4b7797a0268539c792a3273041c61a2c4d8d61a0177fe1',
    },
    'paley-graph-q9': {
        'step0': 'c0b0bbaed78e12fd51b184900f58deabadd9747d5c9e53e9d592e9736bf3cc6b',
        'step1': '2d8a5c752a05e105e797dbf40da77721a9b6195ed33351e1a8569fb85236f4f3',
        'm.json': '9c1f46146606d2ea47ff24dff25886deaf084fe1221127ab22b964c7b858f54b',
        'm.txt': 'd0a6b6625d0cafe1166b73295fd14cd3b3a6fccb763770644a41a3bb619df3f1',
    },
    'qr-design-q7': {
        'step0': 'c0b0bbaed78e12fd51b184900f58deabadd9747d5c9e53e9d592e9736bf3cc6b',
        'step1': 'fb70d1799a45818921a9f710417051f6552e933523240699fd2329c4ba545152',
        'step2': 'c0b0bbaed78e12fd51b184900f58deabadd9747d5c9e53e9d592e9736bf3cc6b',
        'step3': 'c0b0bbaed78e12fd51b184900f58deabadd9747d5c9e53e9d592e9736bf3cc6b',
        'step4': 'c0041cb457001149584bc1957247a282093a5905887c6c55dc759fe8c6c0f0a4',
        'e2.txt': 'c58bc5e1b4d3be5b71b022b23377846acc14fe106cfe4a93e617190bd43bc7fa',
        'lexed.txt': '3e7236dbb62a4b74897884f064d8d15af663914e61028b91a55a664f4b3c4602',
        'm.json': 'dcfb09bac06a9c8b03971ab4920f69f667bb9d07ae7213d4ba8096735560123c',
        'm.txt': '1dd5bf9a7bc44ebd4ca9c910ecba5b9e913543bc402b7ef5c3ccbc0deafc22a4',
        'q.txt': '1dd5bf9a7bc44ebd4ca9c910ecba5b9e913543bc402b7ef5c3ccbc0deafc22a4',
    },
    'search-8-3-3-1-0': {
        'step0': 'e711798022e984dbbe566ac3836258f697e85b93a119ae081ea85c2dca2e8217',
    },
    'skew-u1': {
        'step0': 'c0b0bbaed78e12fd51b184900f58deabadd9747d5c9e53e9d592e9736bf3cc6b',
        'step1': '19a8eeea49decd5017e99d572fb2a36f07c1ad8cc322d54eb1ccc166991b6a5f',
        'step2': '5bca5987f17ef41d9adde1e7bea9962728c4ee3efd899ca11727787ea7026425',
        'step3': '70ed7b37fbbdc2c644600afb918bee7aa02da8a635468acd45312313234bf0f9',
        'step4': 'c0b0bbaed78e12fd51b184900f58deabadd9747d5c9e53e9d592e9736bf3cc6b',
        'step5': '42fb569714e459e1fb52c95f380d819534ce3c6cfe845469cc1a990e88ab547e',
        'ddd.json': 'edc2d6a54a35aab0d3c1cff009083de8a2006bd5b8ad4bca308ee0518c29f821',
        'deza.json': 'ca4b22899b5d86a2d46e6d69ff2ecf8dc866446ab99920c3927462efacffc0bd',
        'kids_X.txt': '75906233d6890e799f4a6e7891c0d272df935c6d4583c01e54b87390a535081d',
        'kids_Y.txt': '5a9d94faa968da237279d442e5db48a54dfd411dd5c7c273b5038b6ee7cbb405',
        'm.json': '5715a6b7dcfbc66e8b41892e10b79a1ab9560c9115475aacfaf4984a813ae10d',
        'm.txt': '571cc7e88a40448710e17c95735ee9a120fbbb84fc80a210fbb4fa1439b2f6c9',
        'x.txt': '75906233d6890e799f4a6e7891c0d272df935c6d4583c01e54b87390a535081d',
        'y.txt': '5a9d94faa968da237279d442e5db48a54dfd411dd5c7c273b5038b6ee7cbb405',
    },
    'skew-u2': {
        'step0': 'c0b0bbaed78e12fd51b184900f58deabadd9747d5c9e53e9d592e9736bf3cc6b',
        'step1': 'e351137940f1363616f856dcd7d01e09f46a91f8984ea8f31e9ff063533ccab4',
        'm.json': '534f1877e65af44088fc978a598e5da6089ea91b2f5a6a16953f872ba88fd0cf',
        'm.txt': 'd4e86126302bae0789bafbefc7047d1ddba5c4458d7b7de798b88c4647326a60',
    },
    'three-valued': {
        'step0': 'd1cc67eb060bb25e24cbf9cac78ba618e880776b65286588ad959aaa53f2e937',
        'step1': 'd16c16ac33ddf4489a645804c2849df42b1161925522b6dc30bed279735fb2fe',
        'm.json': '01cf818d9d96014a2a3de6cf4adf2ece1cb23cc8a63cae892347b19ed8db39f7',
        'sym.json': '200b8add4dbd7bbbd4c199c722b643627bc114b136a5bc4002129bd889193416',
    },
    'twin-4': {
        'step0': 'c0b0bbaed78e12fd51b184900f58deabadd9747d5c9e53e9d592e9736bf3cc6b',
        'step1': '97855d4cdef613870707563c99c7331637fe9b8065f06fb42d91eb95c6a7cb48',
        'step2': '97855d4cdef613870707563c99c7331637fe9b8065f06fb42d91eb95c6a7cb48',
        'step3': '492c9e266de29ee0b6916ab05910c06f5c5d9e41255cd01345fdf3b5ccfff545',
        'step4': '492c9e266de29ee0b6916ab05910c06f5c5d9e41255cd01345fdf3b5ccfff545',
        't_A.json': '0159c23fdc5943a5cc1b74115480b64264085457572b391a5ead372f6cf23403',
        't_A.txt': '8ac4bdb391d310ede5fc41b0fdfab86344b93af834d0a0524bd50369f2d3aaa8',
        't_B.json': 'a27e0f7faa08721111f9e090f8ab313640e93d2de8eab194c5919fdb2a6b94b2',
        't_B.txt': '8488e4cdc570f97ddb335c00f3f8dce419c49b7032563fdb0c9940186e51325a',
        't_K.txt': 'eadd120b4790f454bffcf2c37a25db6baddc9b57244f34792a29c41488f887b4',
        't_RA.json': '1457225721c2b91f36737007e4720a355c3c8c2d4c4c0640c7414643f7be91ed',
        't_RA.txt': '121e0b82d55e686bd82f618d69258ec38ecc888a0989de9648b837842d1a0a67',
        't_RB.json': 'db7dd274f24ad683a8fb6d32e61e2fa3dee18e666d8912db55208cac9aad8e51',
        't_RB.txt': '87d1075871ad563eecd5db1b479f9f143b819945ac7391e8e78631678f9b07fe',
    },
    'twin-directed-4': {
        'step0': 'c0b0bbaed78e12fd51b184900f58deabadd9747d5c9e53e9d592e9736bf3cc6b',
        'step1': 'e77744560c15cc9de0df0da3048211018227605e642e189b089bcc3e064f02dc',
        'step2': 'e77744560c15cc9de0df0da3048211018227605e642e189b089bcc3e064f02dc',
        'step3': '78894c96cf09ae1ec3f47a7324feb37ef4ae4ec70e15012a352da984de13a76b',
        'step4': '78894c96cf09ae1ec3f47a7324feb37ef4ae4ec70e15012a352da984de13a76b',
        't_A.json': '907651d0f5e7754be091bf5dbe9155782c7ad6f80da0b61302c05d3bf1bd4921',
        't_A.txt': '9cf93658430b40ddf1d15c5aad3b47d592a2b4c86bbb75988011e1b6e24d0be8',
        't_B.json': 'db41238008b73b572ee34392dacf7194eab215266d64221648a9e8cb00019641',
        't_B.txt': '8b74a535d6d3db44177c514c2c5a97f438b26b8c9419c7f6b016e84941ab4546',
        't_K.txt': 'd1a71cf7758d3fbe8baadb4ce0e6a3f296baf1ffd265f28506298ac5285f3ec7',
        't_RA.json': '54c167111d06b0b1b160fb22925747587769dc9642b4cce6dcbbe039bd5e04c3',
        't_RA.txt': '61c55a85eaa702759271e90e409b795c9a8019fe6cc20d9297069232176be3b3',
        't_RB.json': 'dc6a7ae117429995e8dd5481c59182725396b93d07544c972c8d120ff778f73a',
        't_RB.txt': '847c7affe1f3bbb2ebe79f7af146ff2b43697e1df6a41ba913d0d4dc1e92ef0f',
    },
    'twin-directed-16': {
        'step0': 'c0b0bbaed78e12fd51b184900f58deabadd9747d5c9e53e9d592e9736bf3cc6b',
        'step1': 'f32aa546e09b88ac6ed5f1a74b93cd0dab56baf95173a57ef9c401ac961d2b38',
        'step2': 'd9cc0047a10c558a8632200e321897b2fb2e7d24f80acfe8c565ef1e9786bed2',
        't_A.json': 'd8fc0783fec928cd7b613ec0f31abcc0f3aaf2119bd5f897fc38af15c4894958',
        't_A.txt': '0a8750325697712d8f64db63eb3c9d0c9d21b1556d6415b63fb071d09c39d952',
        't_B.txt': 'a2a8c9d3c2b09cd1ab693c863bd84857351bd6a2a097778a0c59f6f7c466cc01',
        't_K.txt': '2a4ed304ac445485aa7810fcd808eab953f7d9203c60eeaca7c3a14596ac1a06',
        't_RA.json': '98f5257b2b5ca8b72cefef26aefdca10fc661c1e973983f7f31252d35f54bf5a',
        't_RA.txt': '6a3606c09d61d8be4eadbf0070ad618870cd241db573a2b73cea9aa580247e2b',
        't_RB.txt': 'a06db8e37c56870f5a668f77c9f7577e36eb0cbdf18ceaa716eea021829eb5ea',
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_outputs_frozen(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_case(name, tmp_path) == GOLDEN[name]
