"""Byte-identity guard: `verify --json` and `reduce --json` output for
fixed arguments and seeds, plus the `constants --all --audit` text and
`demo-codywaite --json`, pinned by sha256.

The digests were taken before the kernel's hot path was reworked (trusted
construction, single-shift rounded ops, lazy z-extraction diagnostics),
and the thm3, correct2 and correct1 ones before the sweep conclusions
moved from Fraction to scaled-integer arithmetic; a performance change must leave every one of them as it is.  A change
that alters an output on purpose (a new stats field, a new JSON key)
re-pins the affected digests and says why.  The seven `verify` digests
other than exhaustive thm6 were re-pinned when the config started to
record the window a check ran (the sweeps' own 12, or null for a check
that reads none) instead of the unread default 8; cases, failures and
stats stayed byte-identical.  The sterbenz2 digest was re-pinned when
one subtraction sweep took over both Sterbenz checks: its stats gained
`closed_form_cases`, which sterbenz already reported.  Runs in-process,
in a few seconds.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from argred.cli import main

VERIFY = [
    (
        "thm6 pi double N=0,10",
        "verify --theorem thm6 --const pi --format double --N 0,10 --seed 20261018 --trials 3000 --json",
        "f991516c44c0d746b5b24b33445a25abb39e84f2e6068f513921713434645199",
    ),
    (
        "thm6 ln2 double N=5 away",
        "verify --theorem thm6 --const ln2 --format double --N 5 --seed 99 --trials 2000 --ties away --json",
        "e8768ae70f7e9d137b1f2ebcd6a07e84aa5424854fe1a65dca91f4296c7f2bae",
    ),
    (
        "eft",
        "verify --theorem eft --seed 7 --trials 3000 --json",
        "995c20451e36b5ff802ab888f854afefca560a9bc6e2b8d002056490bff952ea",
    ),
    (
        "correct3 p=8 away",
        "verify --theorem correct3 --p 8 --r-step 32 --ties away --json",
        "0ecfdd5be9a82a72967d8eeac3e26e697cec215ea8a990f3795f3fadbaacb6be",
    ),
    (
        "thm6 exhaustive p=8",
        "verify --theorem thm6 --exhaustive --p 8 --r-step 64 --N 0,2 --window 4 --json",
        "2bd93e5312827cd2ffdcc4ccccd48e3a0b289a54d9dae43dd5ef25d29c0c4b7e",
    ),
    (
        "thm3 p=8",
        "verify --theorem thm3 --p 8 --r-step 16 --json",
        "ac12809d4e223a3cbcf93fe8647606eb622af356b465260bce7c317e56a03de8",
    ),
    (
        "correct2 p=8 q=2,3",
        "verify --theorem correct2 --p 8 --r-step 16 --N 0,1 --q 2,3 --json",
        "342c5e2b99405152b4518ba9c81bc633b75196c875fa81f4f0d4cd83e3de3bfa",
    ),
    (
        "correct1 p=8 N=0,1",
        "verify --theorem correct1 --p 8 --r-step 16 --N 0,1 --json",
        "a28e938c72c221025006db2d35b6e763f6b05bcb77305b7f593dd0cb5f10789b",
    ),
    (
        "sterbenz beta=3 p=3",
        "verify --theorem sterbenz --beta 3 --p 3 --json",
        "dca632fb798dee7ff96892b4cf5e6605c1fea5098618dce2dee1d686da803870",
    ),
    (
        "sterbenz2 p1=6 p2=3",
        "verify --theorem sterbenz2 --beta 2 --p1 6 --p2 3 --json",
        "0ab3752ac7154d8f5ee4d64cd46fefb8ff560ea38cfedb6915a7fc3c7cba6bb3",
    ),
]

REDUCE_X = ("10", "-3.25", "1e5", "123456789 * 2^-20")
REDUCE_DIGESTS = {
    ("pi", "double"): (
        "77ce2a82196b590953bddde7c8d76d74aba3901ea99cebf11d547dbf212d9619",
        "d26ca081d3f53242ec793bbd0e38d96c88d98063e31533d2d44412847e20398a",
        "1df84839f43c63697c78a31802c65cc775cf6f200be2e16b668324b1f4d5636a",
        "12acc779c07ff42f07c267aff3ba4b17ea324c36e8a98ea5e22980b07949c587",
    ),
    ("ln2", "double"): (
        "567af07c0e67abdc08f676835c62f13ca5c903f57be56aea65676dd5bcf1b8d6",
        "8d8682b0d0eb5e1388109f63ef80668d0ffeac5d94daecabb34bd1599b640e0d",
        "849b9580d14570dd2bbb36dcae42294dff87ae714c718ac8d0cc1e6474bf1ae7",
        "d0590e1b3dc535150ebd9da5b252ba315ac17a5bc75a91fed0565ba76246fec1",
    ),
    ("pi", "quad"): (
        "af600530fb30fa8b3030be2e7f6d3bb3ce5197bc8447af0344567a2dc121ed5d",
        "0ff8f531c579fec2a56ddbbbc0c2c82e564d59048b9a9ad2f3d64a195040d1df",
        "a728662cfa77c23ffe3a93420a6470e3c3f0b25711dd35d21bb6ff37503cf224",
        "34ec572603158023db2d989e2c2ab08c6c14f70f745a8060911eeade84d8227b",
    ),
    ("ln2", "quad"): (
        "9a48245d9e76a2b3ba662d9fa8478371f698f81f1aa80339a240e73e1f208f6b",
        "3838f1be77539c5b6107c0e8803f3744f6b4d2b58a11e1e1da804904771d4285",
        "a81c60ddb00985fce017b070c6dd94c15efe6e41bf9a695ae841e1bc2b128a39",
        "23ba32e332557e34301bbb4f98838ce7e15f835ae1d4595eaa0eba0a96d227b6",
    ),
}
REDUCE = [
    (f"{c} {f} x={x}", ["reduce", "--x", x, "--const", c, "--format", f, "--json"], digest)
    for (c, f), digests in REDUCE_DIGESTS.items()
    for x, digest in zip(REDUCE_X, digests)
] + [
    (
        "ln2 single x=700.5 away",
        ["reduce", "--x", "700.5", "--const", "ln2", "--format", "single", "--ties", "away", "--json"],
        "0da4bceb1a44cecc85ce506b062a437c784b8cfc7f260c9862a5138f109841a7",
    ),
    (
        "pi double-extended x=-1e10 N=5",
        ["reduce", "--x=-1e10", "--const", "pi", "--format", "double-extended", "--N", "5", "--json"],
        "ff6e0c9f0a1feb49ce04b08ef3027d2cb9db2f79ccf35a25cbd8be1cc242cd92",
    ),
]
OTHER = [
    (
        "constants all audit",
        "constants --all --audit",
        "5585e0980976aa973ae82faf0348ae8ffa2db8035691553df42416872d5c3b37",
    ),
    (
        "demo-codywaite",
        "demo-codywaite --json",
        "4c175d4c26e026dcde214b9668761efae51bb2b5e065cc60d7333eda1a64eaa4",
    ),
]
CASES = [(name, argv.split(), digest) for name, argv, digest in VERIFY + OTHER] + REDUCE


@pytest.mark.parametrize("argv, digest", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_json_output_is_byte_identical(argv, digest):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
