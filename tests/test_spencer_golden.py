"""Golden bytes of the `spencer` reports.

The sha256 of every `spencer --op involutive|cohomology|prolong|cartan`
report on nine textbook symbols, each in its textbook basis ("sparse") and
under one fixed dense change of basis of V and of W ("dense"). A change to
the Spencer code that keeps its answers keeps these bytes; the digests were
recorded before the coboundary and slice tables and the bounded basis
search went in.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from koszul import cli


def _unit(w, v, k, i):
    a = [[0] * v for _ in range(w)]
    a[k][i] = 1
    return a


def _skew(m):
    out = []
    for i in range(m):
        for j in range(i + 1, m):
            a = [[0] * m for _ in range(m)]
            a[i][j], a[j][i] = 1, -1
            out.append(a)
    return out


def _sym(m):
    out = []
    for i in range(m):
        for j in range(i, m):
            a = [[0] * m for _ in range(m)]
            a[i][j] = a[j][i] = 1
            out.append(a)
    return out


# name: (v, w, list of w x v matrices)
SYMBOLS = {
    "so3": (3, 3, _skew(3)),
    "full:2x2": (2, 2, [_unit(2, 2, k, i) for k in range(2)
                        for i in range(2)]),
    "conformal:2": (2, 2, [[[1, 0], [0, 1]], [[0, -1], [1, 0]]]),
    "sym:2": (2, 2, _sym(2)),
    "zero:2x2": (2, 2, []),
    "full:3x2": (3, 2, [_unit(2, 3, k, i) for k in range(2)
                        for i in range(3)]),
    "skew:4": (4, 4, _skew(4)),
    "sym:3": (3, 3, _sym(3)),
    "traceless:2": (2, 2, [[[1, 0], [0, -1]], [[0, 1], [0, 0]],
                           [[0, 0], [1, 0]]]),
}


def _ladder(n):
    """The matrix min(i, j) + 1 (determinant 1) and its inverse, the
    tridiagonal matrix with 2 (1 in the last place) on the diagonal and -1
    beside it."""
    a = [[min(i, j) + 1 for j in range(n)] for i in range(n)]
    inv = [[(2 if i < n - 1 else 1) if i == j else -(abs(i - j) == 1)
            for j in range(n)] for i in range(n)]
    return a, inv


def _mul(a, b):
    return [[sum(x * b[k][j] for k, x in enumerate(row))
             for j in range(len(b[0]))] for row in a]


def _dense(v, w, mats):
    """Each A as Q A P^-1: Q the ladder of W with its rows reversed, P
    twice the ladder of V, so every entry is read as a fraction."""
    q = _ladder(w)[0][::-1]
    p_inv = [[Fraction(x, 2) for x in row] for row in _ladder(v)[1]]
    return [_mul(_mul(q, a), p_inv) for a in mats]


def _doc(v, w, mats):
    return {"v": v, "w": w, "basis": [[str(x) for row in a for x in row]
                                      for a in mats]}


OPS = ("involutive", "cohomology", "prolong", "cartan")

GOLDEN = {
    ("so3", "sparse", "involutive"):
        "c4ed4dedecb913a1a38e85faa5cef70f2919f930fe4e53c139006604f42b3221",
    ("so3", "sparse", "cohomology"):
        "a56e8528227b94b582b0c6654765794c5b1e8fa40ac72a051c44013b46cf4404",
    ("so3", "sparse", "prolong"):
        "a576f37be5428b97417b079455e81ada9a0eec6248b99b7d1e8e57238aa479d2",
    ("so3", "sparse", "cartan"):
        "1020c2c42b63f5d8e35a03fcee1d9dc1fb91e7340d704673f60fd23e863e138a",
    ("so3", "dense", "involutive"):
        "5a7c4704b4702e70c0afa622ff888305b16e1e0e0435839e1cd7a3e39fdc18e9",
    ("so3", "dense", "cohomology"):
        "8218b96aad049c1fc9c005fb80de7630bb75ce35f4598926bd0f7e7ee7459e75",
    ("so3", "dense", "prolong"):
        "162c31ce4825558cef8b749ae0ea16be03352acab2589f5e9851f0ad6b4cf706",
    ("so3", "dense", "cartan"):
        "f71af08d0e29152260f54626e52d7e793b7c83d6f2185308836661cc9fd6aa02",
    ("full:2x2", "sparse", "involutive"):
        "99cb0a37291bde8bef540c00027a6cc9c6fbdf441955b70b36ef376463d06e7c",
    ("full:2x2", "sparse", "cohomology"):
        "17bc117bf08617fa9ed010b69c2ce39f79f04d11bbbcd9ce1179639e36805e77",
    ("full:2x2", "sparse", "prolong"):
        "c223b2eb2998d42aa1317905d6af23f972132bc2eefb1475d4014e2a6cb811d3",
    ("full:2x2", "sparse", "cartan"):
        "8bca967584f12322693d6141e859b3084281f32cc0b489c73c25e7fe0b318441",
    ("full:2x2", "dense", "involutive"):
        "ae53d65e01d6af1c7e392bef4e8c4db6a3a6dcff7a159662047ce0fcb3be11e6",
    ("full:2x2", "dense", "cohomology"):
        "4f2cfb25411d7ff62aa8bdcba37aad6bb2b9f35b194880e9027be5743afcc912",
    ("full:2x2", "dense", "prolong"):
        "8296f07980064ca80a678c0fd399c5a538be5d383628d90dec0f3e6666676ee2",
    ("full:2x2", "dense", "cartan"):
        "d07a9363584dc0de872ca7d924d71d23d84a3238d90e4edf818d1cb3f7ecf8da",
    ("conformal:2", "sparse", "involutive"):
        "cd6f55bb14967fd5ba0b62ec1657417c27aed6fa485709055721beb0ddf5fa0e",
    ("conformal:2", "sparse", "cohomology"):
        "049f68f44da7923e4c02716f6b8eba74f16763a7c4f1c51c248126d98c56dc85",
    ("conformal:2", "sparse", "prolong"):
        "71b70457969aaee7370161de6475979777884d529d884f227fd8fc15c44e752c",
    ("conformal:2", "sparse", "cartan"):
        "3b1dfc03e44e37e08ab0f6c0b3a8f2cb63f9283368f9d195a7e7e9e7debd4f5e",
    ("conformal:2", "dense", "involutive"):
        "525ad40b188fd7309efab122b1d72ab2098569294fcbe6773d6d0ec40a21510f",
    ("conformal:2", "dense", "cohomology"):
        "d9293ca3cb7f081a75aad180f70597acfe0cf8305b97a4845fb38843ec30ba1a",
    ("conformal:2", "dense", "prolong"):
        "11e7b84b4a6ffe273444e3087eb804b61d5966b6faca1d5c379606f6684d1bee",
    ("conformal:2", "dense", "cartan"):
        "6bb31186a54c9b19342879fb32d237a9169633c9a04b868dbb17234dd7cd25b4",
    ("sym:2", "sparse", "involutive"):
        "0bd7400d324d5c0d77c59533f0382495ddb49ad15bbdbec5abc21b14f97a0173",
    ("sym:2", "sparse", "cohomology"):
        "1c71dbc3111d722cb11c68eb9759c27e8c2a4f193f96fc4784209a1a5b845942",
    ("sym:2", "sparse", "prolong"):
        "f378ace7e84615981b7eec0cb17e75e37668e1c32f304d8a153836b68fdb1ff2",
    ("sym:2", "sparse", "cartan"):
        "0a8c8df495597dd4c67ae75291760c075cfd3b9022b43f4f8feae3fad2722d15",
    ("sym:2", "dense", "involutive"):
        "971f9190373fe2c3c6699b6f2b5e774de408f1bdebfde190d2c85f4e98014528",
    ("sym:2", "dense", "cohomology"):
        "1e0671c604151cc22f1a83a4e646a51ed58eec11d4f3ac7ad47d92f6cba28eb3",
    ("sym:2", "dense", "prolong"):
        "a69fee2f16ad961db585c764f628475091c18c8c10c135e92fe7a9a09bc91c69",
    ("sym:2", "dense", "cartan"):
        "01ea4e37d08d1e3582251ac333a5faf86df9161dc4edf3bc39d850034b4b44c7",
    ("zero:2x2", "sparse", "involutive"):
        "95a730ada794ae6a9a7157787dbfeddcef3b74ca7e7c5889c93e335b32874284",
    ("zero:2x2", "sparse", "cohomology"):
        "83db5973701fd315f5e2e2bca3b752d2c09e8d0bd6b2839fc5e12619f3977840",
    ("zero:2x2", "sparse", "prolong"):
        "0c9bb053e271ef5c27aaaad7a6702f805896d0c4e38218f05c78be1dbe4c6d8a",
    ("zero:2x2", "sparse", "cartan"):
        "d7e9379f4d5c69b027ef18a6feaaaa2e2d911dab61318cbcef73cd0d8a2258c3",
    ("zero:2x2", "dense", "involutive"):
        "95a730ada794ae6a9a7157787dbfeddcef3b74ca7e7c5889c93e335b32874284",
    ("zero:2x2", "dense", "cohomology"):
        "83db5973701fd315f5e2e2bca3b752d2c09e8d0bd6b2839fc5e12619f3977840",
    ("zero:2x2", "dense", "prolong"):
        "0c9bb053e271ef5c27aaaad7a6702f805896d0c4e38218f05c78be1dbe4c6d8a",
    ("zero:2x2", "dense", "cartan"):
        "d7e9379f4d5c69b027ef18a6feaaaa2e2d911dab61318cbcef73cd0d8a2258c3",
    ("full:3x2", "sparse", "involutive"):
        "aada4dba4f762d18116a2ddb179a7af37252067089f562cc9f28ebd92330e9bc",
    ("full:3x2", "sparse", "cohomology"):
        "e21c88f919139591ce2331da305c79edb57d969c3bb3f8a5972e3b8ee18d600c",
    ("full:3x2", "sparse", "prolong"):
        "3b0374316064f7ac5389c75e6179b07bfdf9d6eb6329ebd40deb2cc5da69ebb3",
    ("full:3x2", "sparse", "cartan"):
        "e72535dc1988e7bd9570b94e14d63d99ab9542262d0dd0fd1caaac23def882e7",
    ("full:3x2", "dense", "involutive"):
        "e10a1bfea87ebc9c04713639320ac4b757f4618d2208abd8ad4151277e4c1fe9",
    ("full:3x2", "dense", "cohomology"):
        "c14a0cb919f49c4406a8ec46fe81c9d505753bbd27b4426e8f831273e6820d51",
    ("full:3x2", "dense", "prolong"):
        "9598f17dede4d7542d1e05f784276d90ec63d34d1d5c60836c2b8ac1538e71d9",
    ("full:3x2", "dense", "cartan"):
        "6176f0e52229e5cb785e5592de28dc9ed19779d44556af729da1f81e1563d53b",
    ("skew:4", "sparse", "involutive"):
        "025e36a2e7b1aeeafcc7189818f7da98332a8f85105b7a4a6d958a5f66702e7c",
    ("skew:4", "sparse", "cohomology"):
        "c8dbb7bb75b44fa250fbd831594c6d2467b92956ceb0f599e290af0b733095d1",
    ("skew:4", "sparse", "prolong"):
        "4b8a40196227a95e7c49da6e3f96d9415f4411573df7250f658854304d2c60be",
    ("skew:4", "sparse", "cartan"):
        "75c17a7a7b401f2806a3017359c245f881d6fb229ee8c89168f91a093adb307a",
    ("skew:4", "dense", "involutive"):
        "e1a40647035d2aa8e16524d13d4167b22e66b7b7ac46782b99671305731d718a",
    ("skew:4", "dense", "cohomology"):
        "7eef51533afbc0541b0b5fee428d1c5d52d081ce1a7bc188e1b3802d651103af",
    ("skew:4", "dense", "prolong"):
        "359063d006e88d230c2fe873cc95038ff05e44b063ea0df5beb6cdb69d9c05e7",
    ("skew:4", "dense", "cartan"):
        "91eda4d36f8b95bc7ea3f9fcf764dbc05580c16dc3076157f814da06883c694b",
    ("sym:3", "sparse", "involutive"):
        "0ca1987c1176e974b953ff65eb63b98b9f42b5797e01a9866d89ee2db0c9d4f1",
    ("sym:3", "sparse", "cohomology"):
        "709032bde2ee7a7f0a6f5299e5caf1bfc573484504ceedf01ddce8c49fdaa5b0",
    ("sym:3", "sparse", "prolong"):
        "a3a05d0cdfda972886cc45db69a518fb5c38fb4c1cada581b30878bbac9abb21",
    ("sym:3", "sparse", "cartan"):
        "2ec057c340f81fd2ecee334eda0f815ad3f891c1c7ef2317d3f0829b398a09ae",
    ("sym:3", "dense", "involutive"):
        "37560a4d7898ca801ad7897d620bfcc2e30f1967df7d0c33d472dd99939741c8",
    ("sym:3", "dense", "cohomology"):
        "a5c2e92162688d472aa563c053e6032fe377e7729b119f58809187ea3d587b8b",
    ("sym:3", "dense", "prolong"):
        "f1eeb5ea8fb51220664b367bc724bab8cd8990e336f3f7d33bd1a409cf7f1ef1",
    ("sym:3", "dense", "cartan"):
        "f19ca2f3c93be32d9e6b4a665dcd883350a1041abe8cd37d15cf8a9fd945c0c9",
    ("traceless:2", "sparse", "involutive"):
        "8d89cb4a27fe84e538300d71316e641f37461ca573fad8506109d896030f309f",
    ("traceless:2", "sparse", "cohomology"):
        "69c5f61d0bd5704b42e3c04a1f4c0147c0329784700dd3e644769b28b2d346d5",
    ("traceless:2", "sparse", "prolong"):
        "dc0fcaaf879c312c6545c8cf1ae705a5224fe1045b14a33107b290ee5b4f6908",
    ("traceless:2", "sparse", "cartan"):
        "232952e9afedc583c841f8281f404cdad4ba3b8defaeacce423c0f92841cdefd",
    ("traceless:2", "dense", "involutive"):
        "289caa983078b0f2d528bac3eae0fe559d8673a5547a2cf77b4c550b9fcd4dc9",
    ("traceless:2", "dense", "cohomology"):
        "cd4c3496308e037b124fb50e8dd0c5f46a777520124f7776de9632e19be5fd7f",
    ("traceless:2", "dense", "prolong"):
        "86ac23ac53c9fc92b842dad3adddc340eac723911ba401d0f2ded602ae3b52d3",
    ("traceless:2", "dense", "cartan"):
        "027dea7fce635e7a07522e7ec11686c8a417cb38c5038600bf1c5d346579fdb8",
}


def _digest(name, form, op, tmp_path, monkeypatch, capsys):
    v, w, mats = SYMBOLS[name]
    if form == "dense":
        mats = _dense(v, w, mats)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "symbol.json").write_text(
        json.dumps(_doc(v, w, mats), sort_keys=True) + "\n")
    code = cli.main(["spencer", "--symbol", "symbol.json", "--op", op])
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("form", ["sparse", "dense"])
@pytest.mark.parametrize("name", list(SYMBOLS))
def test_spencer_reports_keep_their_bytes(name, form, op, tmp_path,
                                          monkeypatch, capsys):
    assert _digest(name, form, op, tmp_path, monkeypatch, capsys) == \
        (0, GOLDEN[name, form, op])
