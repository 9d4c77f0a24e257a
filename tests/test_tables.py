"""CSV tables: one format for every CSV the CLI writes, one reader for every CSV it reads."""

import json

import pytest

import doublelinear.cli as cli
from doublelinear import ingest_csv, load_weight_table
from doublelinear.cli import main
from doublelinear.tables import read_rows, write_table

PROVENANCE = "# config: "


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestWrittenTables:
    @pytest.mark.parametrize(
        "argv, tables",
        [
            (["weights", "--w", "log_ramp", "--n", "7"], {"weights.csv": "stage,weight"}),
            (
                ["simulate", "--grid", "-0.1,0.2", "--paths", "5", "--n", "6"],
                {"sweep.csv": "mu_star,mean_gain,std_error"},
            ),
            (
                ["simulate", "--mu-star", "0.1", "--paths", "5", "--n", "6", "--dump-paths", "3"],
                {"paths.csv": "path_id,stage,price"},
            ),
            (
                [
                    "backtest", "--csv", "{prices}", "--w", "constant:0.5", "--w", "ma:2",
                    "--with-buy-hold", "--curves",
                ],
                {
                    "backtest.csv": "metric,buy_and_hold,constant:0.5,ma:2",
                    "curve_1.csv": "stage,gain",
                    "curve_2.csv": "stage,gain",
                    "curve_3.csv": "stage,gain",
                },
            ),
        ],
    )
    def test_every_csv_has_provenance_header_and_newline_ends(self, tmp_path, capsys, argv, tables):
        prices = tmp_path / "prices.csv"
        prices.write_text("timestamp,price\n1,100\n2,110\n3,99\n4,104\n5,103\n")
        outdir = tmp_path / "out"
        argv = [token.format(prices=prices) for token in argv]
        assert main([*argv, "--outdir", str(outdir)]) == 0
        capsys.readouterr()
        command = argv[0]
        if command == "weights":
            config = {**cli.DEF_WEIGHTS, "w": "log_ramp", "n": 7}
        else:
            config = read_json(outdir / f"{command}.json")["config"]
        for name, header in tables.items():
            raw = (outdir / name).read_bytes()
            assert b"\r" not in raw, name
            assert raw.endswith(b"\n"), name
            lines = raw.decode().split("\n")[:-1]
            assert lines[0].startswith(PROVENANCE), name
            assert json.loads(lines[0][len(PROVENANCE):]) == {"command": command, **config}
            body = [line for line in lines if not line.startswith("#")]
            assert body[0] == header, name
            width = header.count(",") + 1
            assert len(body) > 1 and all(line.count(",") + 1 == width for line in body[1:]), name


class TestTableModule:
    def test_round_trip_with_line_numbers(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["one", "two"], ("a", "b"), (f"{i},{i / 4!r}" for i in range(3)))
        assert path.read_bytes() == b"# one\n# two\na,b\n0,0.0\n1,0.25\n2,0.5\n"
        assert list(read_rows(path, ("a", "b"))) == [
            (4, ["0", "0.0"]), (5, ["1", "0.25"]), (6, ["2", "0.5"]),
        ]

    def test_writes_a_list_longer_than_one_block(self, tmp_path):
        path = tmp_path / "t.csv"
        lines = [f"{i},{i * 0.1!r}" for i in range(10_000)]
        write_table(path, [], ["a", "b"], lines)
        assert path.read_text() == "a,b\n" + "".join(line + "\n" for line in lines)

    def test_reads_an_open_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with open(path, newline="") as fh:
            assert list(read_rows(fh, ("a", "b"))) == [(2, ["1", "2", "3"])]


# Each text is given once per reader, with {header} filled in with that
# reader's two column names as written by `columns`.
READER_CASES = {
    "plain": ("{header}\n1,0.25\n2,0.5\n", [0.25, 0.5]),
    "crlf line ends": ("# made on windows\r\n{header}\r\n1,0.25\r\n2,0.5\r\n", [0.25, 0.5]),
    "comments between rows": ("# a\n{header}\n# b\n1,0.25\n  # c\n2,0.5\n# d\n", [0.25, 0.5]),
    "blank lines": ("\n{header}\n\n1,0.25\n\n\n2,0.5\n\n", [0.25, 0.5]),
    "upper-case header with spaces": ("{upper}\n1,0.25\n2,0.5\n", [0.25, 0.5]),
    "header only": ("# provenance\n{header}\n", None),
    "comments only": ("# provenance\n# more\n", None),
    "empty file": ("", None),
    "wrong header": ("first,second\n1,0.25\n", None),
    "short row": ("{header}\n1,0.25\n2\n", None),
}


def columns(names, text):
    return text.format(header=",".join(names), upper=" , ".join(n.upper() for n in names) + " ")


@pytest.mark.parametrize("case", list(READER_CASES))
def test_price_and_weight_readers_agree(tmp_path, case):
    text, expected = READER_CASES[case]
    prices = tmp_path / "prices.csv"
    prices.write_bytes(columns(("timestamp", "price"), text).encode())
    weights = tmp_path / "weights.csv"
    weights.write_bytes(columns(("stage", "weight"), text).encode())
    if expected is not None:
        assert ingest_csv(prices).prices.tolist() == expected
        assert load_weight_table(weights).tolist() == expected
        return
    with pytest.raises(ValueError) as price_error:
        ingest_csv(prices)
    with pytest.raises(ValueError) as weight_error:
        load_weight_table(weights)
    # the same complaint, prefixed with the table's name; headers name their own columns
    price_text = str(price_error.value).replace("timestamp,price", "stage,weight")
    assert str(weight_error.value) == f"weight table {weights}: {price_text}"
