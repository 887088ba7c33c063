"""Status mapping of the prediction service when each request is scored
inline on its handler thread, with no batching queue in between."""

import pytest

from repro.core.rules import ClusteredRule, Interval
from repro.core.segmentation import Segmentation
from repro.persistence import save_segmentation
from repro.serve import ModelRegistry, PredictionService, ServiceError


def make_rule(x_lo, x_hi, y_lo, y_hi, *, rhs="A"):
    return ClusteredRule(
        "age", "salary", Interval(x_lo, x_hi), Interval(y_lo, y_hi),
        "group", rhs, support=0.1, confidence=0.9,
    )


@pytest.fixture()
def segmentation():
    return Segmentation.from_rules([
        make_rule(20, 40, 50_000, 100_000),
        make_rule(60, 80, 25_000, 75_000),
    ])


class TestServiceWithBatcher:
    @pytest.fixture()
    def model_dir(self, tmp_path, segmentation):
        directory = tmp_path / "models"
        directory.mkdir()
        save_segmentation(segmentation, directory / "groupA.json")
        return directory

    def make_service(self, model_dir):
        return PredictionService(
            ModelRegistry(model_dir, refresh_interval=0).load()
        )

    def test_draining_queue_maps_to_503(self, model_dir):
        service = self.make_service(model_dir)
        service.begin_drain()
        status, body = service.dispatch(
            "predict", {"model": "groupA", "x": 25, "y": 60_000}
        )
        assert status == 503
        assert "draining" in body["error"]

    def test_nan_still_maps_to_400(self, model_dir):
        service = self.make_service(model_dir)
        with pytest.raises(ServiceError) as info:
            service.predict({"model": "groupA", "x": float("nan"), "y": 1})
        assert info.value.status == 400
        status, body = service.dispatch(
            "predict", {"model": "groupA", "x": float("nan"), "y": 1}
        )
        assert status == 400
        assert "error" in body
