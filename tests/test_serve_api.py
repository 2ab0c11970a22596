"""Tests of the unified serve API: layered configs, reason-coded errors,
typed stats, tenancy and the model registry."""

import dataclasses

import pytest

from repro.serve import (
    ANONYMOUS,
    AsyncOptions,
    AsyncPredictionService,
    AuthenticationError,
    AuthorizationError,
    CacheStats,
    InvalidRequestError,
    ModelRegistry,
    ModelVariant,
    PredictionRequest,
    PredictionService,
    QueueFullError,
    ReasonCode,
    RequestExpiredError,
    RequestQueue,
    ServeError,
    ServiceClosedError,
    ServiceConfig,
    ServiceSnapshot,
    Tenant,
    TenantDirectory,
    UnknownModelError,
)


class TestLayeredConfig:
    def test_service_config_carries_async_options(self):
        config = ServiceConfig(
            max_batch_size=16,
            async_options=AsyncOptions(max_latency_ms=5.0, backpressure="reject"),
        )
        assert config.async_options.max_latency_ms == 5.0
        assert config.async_options.backpressure == "reject"

    def test_async_options_has_no_batch_size_knob(self):
        # The collapsed duplication: max_batch_size lives on ServiceConfig
        # only, so the sync and async layers cannot disagree about it.
        names = {spec.name for spec in dataclasses.fields(AsyncOptions)}
        assert "max_batch_size" not in names

    def test_async_options_validation(self):
        with pytest.raises(ValueError):
            AsyncOptions(max_latency_ms=-1.0)
        with pytest.raises(ValueError):
            AsyncOptions(flush_policy="nope")
        with pytest.raises(ValueError):
            AsyncOptions(max_queue_blocks=0)
        with pytest.raises(ValueError):
            AsyncOptions(backpressure="drop")
        with pytest.raises(ValueError):
            AsyncOptions(flush_policy="adaptive", min_latency_ms=20.0,
                         max_latency_ms=10.0)

    def test_options_and_service_config_build_equivalent_services(self):
        options = AsyncOptions(
            max_latency_ms=7.5, max_queue_blocks=64, backpressure="reject"
        )
        # Explicit options around an externally configured service ...
        wrapped = AsyncPredictionService(
            options, service=PredictionService(ServiceConfig(max_batch_size=8))
        )
        # ... and one ServiceConfig that carries the same options.
        owned = AsyncPredictionService(
            service_config=ServiceConfig(max_batch_size=8, async_options=options)
        )
        assert wrapped.options == owned.options == options
        assert wrapped.service.config.max_batch_size == 8
        assert owned.service.config.max_batch_size == 8
        assert wrapped.queue.max_blocks == owned.queue.max_blocks == 64
        assert wrapped.queue.policy == owned.queue.policy == "reject"
        with pytest.raises(ValueError):
            AsyncPredictionService(
                service=PredictionService(), service_config=ServiceConfig()
            )

    def test_service_batch_size_drives_size_flushes(self, sample_blocks):
        config = ServiceConfig(
            max_batch_size=4,
            async_options=AsyncOptions(
                max_latency_ms=60_000.0, flush_policy="static"
            ),
        )
        with AsyncPredictionService(service_config=config) as front_end:
            future = front_end.submit(PredictionRequest.of(sample_blocks[:4]))
            response = future.result(timeout=120.0)
        assert response.num_blocks == 4
        snapshot = front_end.snapshot()
        # With a one-minute deadline, only the size trigger can have fired.
        assert snapshot.flush.size_flushes >= 1
        assert snapshot.flush.deadline_flushes == 0


class TestReasonCodes:
    @pytest.mark.parametrize(
        "error_type, legacy_base, code",
        [
            (QueueFullError, RuntimeError, ReasonCode.QUEUE_FULL),
            (RequestExpiredError, TimeoutError, ReasonCode.DEADLINE_EXPIRED),
            (ServiceClosedError, RuntimeError, ReasonCode.SERVICE_CLOSED),
            (UnknownModelError, LookupError, ReasonCode.UNKNOWN_MODEL),
            (AuthenticationError, PermissionError, ReasonCode.UNAUTHENTICATED),
            (AuthorizationError, PermissionError, ReasonCode.FORBIDDEN),
            (InvalidRequestError, ValueError, ReasonCode.INVALID_REQUEST),
        ],
    )
    def test_machine_readable_and_backward_compatible(
        self, error_type, legacy_base, code
    ):
        error = error_type("boom")
        assert error.code is code
        assert isinstance(error, ServeError)
        # Pre-taxonomy except clauses must keep catching these.
        assert isinstance(error, legacy_base)

    def test_codes_are_wire_stable_strings(self):
        assert ReasonCode.QUEUE_FULL.value == "queue_full"
        assert len({code.value for code in ReasonCode}) == len(ReasonCode)

    def test_queue_raises_coded_errors(self):
        queue = RequestQueue(max_blocks=1, policy="reject")
        queue.put(PredictionRequest.of(["mov rax, 1"]))
        with pytest.raises(QueueFullError) as info:
            queue.put(PredictionRequest.of(["mov rbx, 2"]))
        assert info.value.code is ReasonCode.QUEUE_FULL
        queue.close()
        with pytest.raises(ServiceClosedError):
            queue.put(PredictionRequest.of(["mov rcx, 3"]))


class TestPublicSurface:
    def test_every_exported_name_resolves(self):
        import repro.serve as serve

        assert len(set(serve.__all__)) == len(serve.__all__)
        missing = [name for name in serve.__all__ if not hasattr(serve, name)]
        assert missing == []


class TestTypedStats:
    def test_to_dict_is_schema_complete_and_recursive(self, sample_blocks):
        with AsyncPredictionService(
            service_config=ServiceConfig(max_batch_size=8)
        ) as front_end:
            front_end.submit(
                PredictionRequest.of(sample_blocks[:2])
            ).result(timeout=120.0)
            document = front_end.snapshot().to_dict()
        assert set(document) == {
            spec.name for spec in dataclasses.fields(ServiceSnapshot)
        }
        assert isinstance(document["queue"], dict)
        assert isinstance(document["flush"], dict)
        assert document["model"]["model_name"] == "granite"
        assert document["model"]["cache"]["prediction_misses"] >= 1

    def test_service_snapshot_typed(self, sample_blocks):
        service = PredictionService(ServiceConfig(max_batch_size=8)).warm_start()
        service.submit([PredictionRequest.of(sample_blocks[:2])])
        stats = service.snapshot()
        assert stats.model_name == "granite"
        assert stats.requests == 1
        assert stats.blocks == 2
        assert stats.cache is not None
        # Attribute access only: the stats structs are not mappings.
        with pytest.raises(TypeError):
            stats["prediction_misses"]
        service.close()

    def test_cache_stats_tolerates_unknown_keys(self):
        stats = CacheStats.from_model_stats(
            {"prediction_hits": 3, "some_future_counter": 9}
        )
        assert stats.prediction_hits == 3
        assert stats.encode_misses == 0


class TestTenancy:
    def test_directory_requires_keys_and_unique_names(self):
        with pytest.raises(ValueError):
            TenantDirectory((Tenant("nokey"),))
        with pytest.raises(ValueError):
            TenantDirectory(
                (Tenant("dup", api_key="a"), Tenant("dup", api_key="b"))
            )

    def test_anonymous_defaults(self):
        assert TenantDirectory().authenticate(None) is ANONYMOUS
        directory = TenantDirectory((Tenant("acme", api_key="k"),))
        assert directory.allow_anonymous is False
        with pytest.raises(AuthenticationError):
            directory.authenticate(None)
        relaxed = TenantDirectory(
            (Tenant("acme", api_key="k"),), allow_anonymous=True
        )
        assert relaxed.authenticate("") is ANONYMOUS

    def test_key_lookup_and_denial(self):
        directory = TenantDirectory(
            (
                Tenant("acme", api_key="key-a", allowed_models=("m1",)),
                Tenant("blue", api_key="key-b"),
            )
        )
        assert directory.authenticate("key-a").name == "acme"
        with pytest.raises(AuthenticationError):
            directory.authenticate("key-c")
        directory.authorize(directory.authenticate("key-b"), "m2")
        with pytest.raises(AuthorizationError):
            directory.authorize(directory.authenticate("key-a"), "m2")

    def test_allow_list(self):
        tenant = Tenant("acme", api_key="k", allowed_models=("m1", "m2"))
        assert tenant.may_use("m1") and not tenant.may_use("m3")
        assert Tenant("open", api_key="k").may_use("anything")


class TestModelRegistry:
    def test_registration_validation(self):
        registry = ModelRegistry()
        registry.register(ModelVariant("model-a"))
        with pytest.raises(ValueError):
            registry.register(ModelVariant("model-a"))
        with pytest.raises(ValueError):
            ModelVariant("no spaces allowed")
        with pytest.raises(ValueError):
            ModelVariant("")
        registry.close()

    def test_unknown_model_is_coded(self):
        with ModelRegistry() as registry:
            with pytest.raises(UnknownModelError):
                registry.stats("ghost")
            with pytest.raises(UnknownModelError):
                registry.submit("ghost", PredictionRequest.of(["mov rax, 1"]))

    def test_lazy_load_unload_cycle(self):
        with ModelRegistry(
            (ModelVariant("m", ServiceConfig(tasks=("haswell",))),)
        ) as registry:
            assert not registry.is_loaded("m")
            report = registry.stats("m")
            assert report.snapshot is None and report.workers == []
            assert not registry.is_loaded("m"), "stats must not load the model"
            future = registry.submit("m", PredictionRequest.of(["mov rax, 1"]))
            assert future.result(timeout=120.0).num_blocks == 1
            assert registry.is_loaded("m")
            assert registry.stats("m").snapshot.queue.submitted_requests == 1
            assert registry.unload("m") is True
            assert registry.unload("m") is False
            assert not registry.is_loaded("m")
            # A fresh instance serves again after unload.
            future = registry.submit("m", PredictionRequest.of(["mov rbx, 2"]))
            assert future.result(timeout=120.0).num_blocks == 1

    def test_tenant_routing_and_counters(self):
        acme = Tenant("acme", api_key="k", allowed_models=("m1",))
        with ModelRegistry(
            (
                ModelVariant("m1", ServiceConfig(tasks=("haswell",))),
                ModelVariant("m2", ServiceConfig(tasks=("skylake",))),
            )
        ) as registry:
            registry.submit(
                "m1", PredictionRequest.of(["mov rax, 1"]), tenant=acme
            ).result(timeout=120.0)
            with pytest.raises(AuthorizationError):
                registry.submit(
                    "m2", PredictionRequest.of(["mov rax, 1"]), tenant=acme
                )
            info = {item.name: item for item in registry.describe()}
            assert info["m1"].requests_by_tenant == {"acme": 1}
            assert info["m2"].requests_by_tenant == {}
            assert info["m2"].loaded is False

    def test_closed_registry_refuses(self):
        registry = ModelRegistry((ModelVariant("m"),))
        registry.close()
        registry.close()  # idempotent
        with pytest.raises(ServiceClosedError):
            registry.submit("m", PredictionRequest.of(["mov rax, 1"]))
        with pytest.raises(ServiceClosedError):
            registry.describe()

    def test_variant_accessor(self):
        config = ServiceConfig(tasks=("haswell",), max_batch_size=5)
        with ModelRegistry((ModelVariant("m", config),)) as registry:
            assert registry.variant("m").config is config
            with pytest.raises(UnknownModelError):
                registry.variant("ghost")
