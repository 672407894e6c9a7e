"""Model file parsing, validation diagnostics and round trips."""

import json
from fractions import Fraction

import pytest

from qpmaps import QPFlow, QPMap, State, load_model, model_document, parse_model, save_model
from qpmaps.errors import ModelFileError
from qpmaps.linalg import RationalMatrix

M = RationalMatrix.from_rows


def sample_doc():
    return {
        "kind": "map",
        "n": 2,
        "m": 2,
        "lambda": ["1", "1/2"],
        "A": [["-1", "0"], ["0", "-2"]],
        "B": [["1", "0"], ["0", "1"]],
        "initial": ["1.5", "0.7"],
        "name": "demo",
    }


def test_parse_valid_map():
    loaded = parse_model(sample_doc())
    assert isinstance(loaded.model, QPMap)
    assert loaded.model.lam == (1, Fraction(1, 2))
    assert loaded.initial.x == (1.5, 0.7)
    assert loaded.name == "demo"


def test_parse_flow_kind():
    doc = sample_doc()
    doc["kind"] = "flow"
    loaded = parse_model(doc)
    assert isinstance(loaded.model, QPFlow)


def test_zero_denominator_diagnostic():
    doc = sample_doc()
    doc["A"][0][1] = "1/0"
    with pytest.raises(ModelFileError) as info:
        parse_model(doc, path="bad.json")
    assert info.value.field == "A[0][1]"
    assert "bad.json" in str(info.value)


def test_float_entries_rejected():
    doc = sample_doc()
    doc["lambda"][0] = 0.5
    with pytest.raises(ModelFileError) as info:
        parse_model(doc)
    assert info.value.field == "lambda[0]"


def test_unknown_key_and_missing_key():
    doc = sample_doc()
    doc["extra"] = 1
    with pytest.raises(ModelFileError, match="unknown keys"):
        parse_model(doc)
    doc = sample_doc()
    del doc["B"]
    with pytest.raises(ModelFileError) as info:
        parse_model(doc)
    assert info.value.field == "B"


def test_shape_and_positivity_diagnostics():
    doc = sample_doc()
    doc["B"] = [["1", "0"]]
    with pytest.raises(ModelFileError) as info:
        parse_model(doc)
    assert info.value.field == "B"

    doc = sample_doc()
    doc["initial"] = ["1.0", "-2.0"]
    with pytest.raises(ModelFileError) as info:
        parse_model(doc)
    assert info.value.field == "initial"


def test_duplicate_rows_diagnosed():
    doc = sample_doc()
    doc["B"] = [["1", "0"], ["1", "0"]]
    with pytest.raises(ModelFileError, match="valid map"):
        parse_model(doc)


def test_json_decode_error_has_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  \"kind\": \"map\",\n")
    with pytest.raises(ModelFileError, match="line"):
        load_model(path)


def test_save_load_roundtrip(tmp_path):
    qp = QPMap(lam=(1, Fraction(1, 2)), A=M([[-1, 0], [0, -2]]),
               B=RationalMatrix.identity(2))
    path = tmp_path / "model.json"
    save_model(qp, path, initial=State((1.5, 0.7)), name="demo")
    loaded = load_model(path)
    assert loaded.model == qp
    assert loaded.initial.x == (1.5, 0.7)
    # document round-trips through JSON losslessly
    doc = model_document(qp, initial=State((1.5, 0.7)), name="demo")
    assert json.loads(json.dumps(doc)) == doc


def test_parse_does_not_mask_unexpected_errors(monkeypatch):
    import qpmaps.modelfile

    def broken_map(lam, a, b):
        raise ZeroDivisionError("not a validation failure")

    monkeypatch.setattr(qpmaps.modelfile, "QPMap", broken_map)
    with pytest.raises(ZeroDivisionError):
        parse_model(sample_doc())


def test_euler_map_is_not_saved_as_a_map(tmp_path):
    from qpmaps import euler_discretize
    from qpmaps.errors import NotApplicableError

    flow = QPFlow(lam_star=(1,), A_star=M([[-1]]), B=M([[1]]))
    em = euler_discretize(flow, Fraction(1, 10))
    path = tmp_path / "euler.json"
    with pytest.raises(NotApplicableError):
        save_model(em, path)
    assert not path.exists()
    with pytest.raises(NotApplicableError):
        model_document(em)
