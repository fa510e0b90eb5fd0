"""Host kernel tests: syscall costs and context-creation baselines."""

import pytest

from repro.host.kernel import HostKernel
from repro.host.process import ContainerRuntime, ProcessBaseline
from repro.host.sgx import SgxBaseline
from repro.host.threads import PthreadBaseline
from repro.hw.costs import COSTS
from repro.units import cycles_to_us


@pytest.fixture
def kernel():
    k = HostKernel()
    k.fs.add_file("/srv/a.txt", b"hello world")
    return k


class TestSyscalls:
    def test_every_syscall_advances_clock(self, kernel):
        before = kernel.clock.cycles
        fd = kernel.sys_open("/srv/a.txt")
        assert kernel.clock.cycles > before
        assert kernel.syscall_count == 1
        kernel.sys_read(fd, 5)
        kernel.sys_close(fd)
        assert kernel.syscall_count == 3

    def test_read_cost_scales_with_size(self, kernel):
        kernel.fs.add_file("/big", bytes(1 << 20))
        fd_small = kernel.sys_open("/srv/a.txt")
        with kernel.clock.region() as small:
            kernel.sys_read(fd_small, 11)
        fd_big = kernel.sys_open("/big")
        with kernel.clock.region() as big:
            kernel.sys_read(fd_big, 1 << 20)
        assert big.elapsed > small.elapsed

    def test_stat(self, kernel):
        assert kernel.sys_stat("/srv/a.txt").size == 11

    def test_network_roundtrip(self, kernel):
        listener = kernel.sys_listen(9999)
        client = kernel.sys_connect(9999)
        server = kernel.sys_accept(listener)
        kernel.sys_send(client, b"ping")
        assert kernel.sys_recv(server, 64) == b"ping"
        kernel.sys_sock_close(client)
        kernel.sys_sock_close(server)

    def test_loopback_latency_charged(self, kernel):
        kernel.sys_listen(9999)
        with kernel.clock.region() as region:
            kernel.sys_connect(9999)
        assert region.elapsed >= COSTS.LOOPBACK_LATENCY


class TestBaselines:
    """Figure 2 / Figure 8 ordering: function << vmrun < pthread << KVM
    create << process << SGX create."""

    def test_pthread_baseline(self, kernel):
        cycles = PthreadBaseline(kernel).create_and_join()
        assert cycles == COSTS.PTHREAD_CREATE_JOIN
        assert 5.0 < cycles_to_us(cycles) < 50.0  # tens of microseconds

    def test_process_baseline(self, kernel):
        cycles = ProcessBaseline(kernel).spawn()
        assert cycles_to_us(cycles) > 100.0

    def test_ordering(self, kernel):
        function = COSTS.FUNCTION_CALL
        vmrun = COSTS.vmrun_roundtrip()
        pthread = PthreadBaseline(kernel).create_and_join()
        process = ProcessBaseline(kernel).spawn()
        assert function < vmrun < pthread < process

    def test_container_cold_vs_warm(self, kernel):
        containers = ContainerRuntime(kernel)
        cold = containers.cold_create()
        warm = containers.warm_invoke()
        assert cold > 100 * warm
        assert containers.cold_starts == 1
        assert containers.warm_starts == 1

    def test_sgx_create_vs_ecall(self, kernel):
        sgx = SgxBaseline(kernel.clock)
        create = sgx.create()
        ecall = sgx.ecall()
        assert create > 100 * ecall
        assert ecall == COSTS.SGX_ECALL

    def test_ecall_requires_enclave(self, kernel):
        with pytest.raises(RuntimeError):
            SgxBaseline(kernel.clock).ecall()
