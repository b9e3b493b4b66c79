"""Pinned whole runs of the request-lifecycle path: client -> collector -> result.

Every reported number is read off the issue -> grant -> release lifecycle
that ``experiments/driver.py`` drives and ``metrics/collector.py`` records,
so an edit to either that changes behaviour must fail here, by name.  The
table was recorded at commit 0260b47, when each loop still had a client
class of its own; the grid covers what ``tests/core/test_forwarding.py``
(closed-loop ``core`` only) does not: every algorithm on both loops,
chunked and unchunked records, crashes with and without a detector, and a
trace replay.
"""

import hashlib
import os

import pytest

from repro.experiments.registry import ALGORITHMS
from repro.experiments.runner import run
from repro.experiments.scenario import Scenario
from repro.sim.detectorspec import HeartbeatDetector
from repro.sim.faultspec import CompositeFaults, NodeCrash
from repro.workload.arrivals import MarkovModulatedArrivals, PoissonArrivals
from repro.workload.params import LoadLevel, WorkloadParams
from repro.workload.spec import OpenLoopSpec, TraceReplaySpec

SAMPLE_TRACE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "examples",
    "data",
    "sample.swf",
)

MMPP = OpenLoopSpec(
    arrival=MarkovModulatedArrivals(rate=0.02, burst_factor=12, burst_fraction=0.15, dwell=200)
)
POISSON = OpenLoopSpec(arrival=PoissonArrivals(rate=0.03))

#: A reboot, a crash for good, and both at once with a second outage of
#: the rebooting node nested inside its first.
CRASHES = {
    "blip": NodeCrash(node=2, at=300.0, recover_at=500.0),
    "permanent": NodeCrash(node=5, at=400.0),
    "nested": CompositeFaults(
        (
            NodeCrash(node=2, at=300.0, recover_at=600.0),
            NodeCrash(node=2, at=400.0, recover_at=500.0),
            NodeCrash(node=5, at=450.0),
        )
    ),
}


def _params(seed, **overrides):
    return WorkloadParams(
        num_processes=8, num_resources=20, phi=4, seed=seed,
        duration=1500.0, warmup=150.0, load=LoadLevel.HIGH, **overrides,
    )


def scenarios():
    """The pinned grid, ``name -> Scenario``."""
    grid = {}
    for algorithm in ALGORITHMS:
        for seed in (1, 2):
            params = _params(seed)
            capped = _params(seed, requests_per_process=25)
            grid[f"{algorithm}-s{seed}-closed"] = Scenario(algorithm, params)
            grid[f"{algorithm}-s{seed}-closed-chunk16"] = Scenario(
                algorithm, params, record_chunk_rows=16
            )
            grid[f"{algorithm}-s{seed}-mmpp-chunk64"] = Scenario(
                algorithm, params, workload=MMPP, record_chunk_rows=64
            )
            grid[f"{algorithm}-s{seed}-poisson-capped"] = Scenario(
                algorithm, capped, workload=POISSON
            )
    for algorithm in ("with_loan", "incremental", "bouabdallah"):
        for crash, faults in CRASHES.items():
            for detector in (None, HeartbeatDetector(10, 30)):
                for loop, workload in (("closed", None), ("open", POISSON)):
                    name = f"{algorithm}-{crash}-{'hb' if detector else 'nodet'}-{loop}"
                    grid[name] = Scenario(
                        algorithm, _params(1), faults=faults, detector=detector,
                        workload=workload, require_all_completed=False,
                    )
    grid["with_loan-swf"] = Scenario(
        "with_loan",
        WorkloadParams(
            num_processes=8, num_resources=20, phi=4, seed=1, duration=4000.0, warmup=400.0
        ),
        workload=TraceReplaySpec(path=SAMPLE_TRACE),
    )
    return grid


def fingerprint(result):
    """What a run is pinned by: work done, messages, records, metrics."""
    return (
        result.events_processed,
        tuple(sorted(result.metrics.messages_by_type.items())),
        result.record_columns.content_key(),
        hashlib.sha256(repr(result.metrics).encode("utf-8")).hexdigest(),
    )


PINNED = {
    'bouabdallah-blip-hb-closed': (
        999,
        (('BLInquire', 234), ('BLResourceToken', 222), ('NTRequest', 234), ('NTToken', 103)),
        'd13e8dc36ef7237c542fed9ca0e7ffe6fba409df619a5a4ae8b376b0bc8ab913',
        '540febc2e5092f5c4dc26f8df0e8680946f8d1aa7b1b190bc4d5eedabba479e3',
    ),
    'bouabdallah-blip-hb-open': (
        1133,
        (('BLInquire', 199), ('BLResourceToken', 191), ('NTRequest', 180), ('NTToken', 93)),
        'e701d51c59016db25821afac9618cc3fa5994c994da40f9e5bd28877a02978fe',
        '8473254d90759856e432bcb1aa85bba025cca474b6b68806c71d38fdf4da5cd7',
    ),
    'bouabdallah-blip-nodet-closed': (
        998,
        (('BLInquire', 234), ('BLResourceToken', 222), ('NTRequest', 234), ('NTToken', 103)),
        'd13e8dc36ef7237c542fed9ca0e7ffe6fba409df619a5a4ae8b376b0bc8ab913',
        '540febc2e5092f5c4dc26f8df0e8680946f8d1aa7b1b190bc4d5eedabba479e3',
    ),
    'bouabdallah-blip-nodet-open': (
        1132,
        (('BLInquire', 199), ('BLResourceToken', 191), ('NTRequest', 180), ('NTToken', 93)),
        'e701d51c59016db25821afac9618cc3fa5994c994da40f9e5bd28877a02978fe',
        '8473254d90759856e432bcb1aa85bba025cca474b6b68806c71d38fdf4da5cd7',
    ),
    'bouabdallah-nested-hb-closed': (
        989,
        (('BLInquire', 231), ('BLResourceToken', 221), ('NTRequest', 229), ('NTToken', 100)),
        'fa599bbc5d7f4cc0df67e13b87a5ac1d23fe05f27fa6b4a374de5d658c266908',
        '50a74597a7401c0f34dcc3c8bf97c6a1946ccadcd38f25becaa36467b6ab8d33',
    ),
    'bouabdallah-nested-hb-open': (
        1100,
        (('BLInquire', 199), ('BLResourceToken', 191), ('NTRequest', 180), ('NTToken', 93)),
        '4dbb7ffd35d22984d2eb1c0ce24c850bdbba1c16d2f953f71294fa31e7d40eba',
        '4e636d9bd02e1bb94da87b8861257ca16cb5de243bec741b485b99839b27c0a4',
    ),
    'bouabdallah-nested-nodet-closed': (
        987,
        (('BLInquire', 231), ('BLResourceToken', 221), ('NTRequest', 229), ('NTToken', 100)),
        'fa599bbc5d7f4cc0df67e13b87a5ac1d23fe05f27fa6b4a374de5d658c266908',
        '50a74597a7401c0f34dcc3c8bf97c6a1946ccadcd38f25becaa36467b6ab8d33',
    ),
    'bouabdallah-nested-nodet-open': (
        1098,
        (('BLInquire', 199), ('BLResourceToken', 191), ('NTRequest', 180), ('NTToken', 93)),
        '4dbb7ffd35d22984d2eb1c0ce24c850bdbba1c16d2f953f71294fa31e7d40eba',
        '4e636d9bd02e1bb94da87b8861257ca16cb5de243bec741b485b99839b27c0a4',
    ),
    'bouabdallah-permanent-hb-closed': (
        1170,
        (('BLInquire', 271), ('BLResourceToken', 262), ('NTRequest', 275), ('NTToken', 122)),
        '920532a8b288d4c87cb15030776b0624a67ec5cc150b929a69eb622b8ff15973',
        'c03d03a1d317c8d120897d59615bf1033a61670417ad3ca5e94861be20ab3bbd',
    ),
    'bouabdallah-permanent-hb-open': (
        1250,
        (('BLInquire', 224), ('BLResourceToken', 224), ('NTRequest', 237), ('NTToken', 107)),
        'e06bde726b62ef00bdcf5f3baebf76a77753bde560962d73acbbffad0f81d3ac',
        '1118c7db404404a1309ae9796a9b4b00f13c0f0f2f94b95a971d63568b8d5034',
    ),
    'bouabdallah-permanent-nodet-closed': (
        1169,
        (('BLInquire', 271), ('BLResourceToken', 262), ('NTRequest', 275), ('NTToken', 122)),
        '920532a8b288d4c87cb15030776b0624a67ec5cc150b929a69eb622b8ff15973',
        'e9b6928a47d70f7be8fa3d9ebc59ae37e42bdc22e3d0be27eaa028d9b566c268',
    ),
    'bouabdallah-permanent-nodet-open': (
        1249,
        (('BLInquire', 224), ('BLResourceToken', 224), ('NTRequest', 237), ('NTToken', 107)),
        'e06bde726b62ef00bdcf5f3baebf76a77753bde560962d73acbbffad0f81d3ac',
        '1118c7db404404a1309ae9796a9b4b00f13c0f0f2f94b95a971d63568b8d5034',
    ),
    'bouabdallah-s1-closed': (
        4158,
        (('BLInquire', 951), ('BLResourceToken', 951), ('NTRequest', 973), ('NTToken', 423)),
        '4d1e69561ae53433be0e558b4a93e84c75fcfb18c3c6f1ae2c820210d19457fb',
        '7e41ed35a626676a7be02eac96d23db7372e97cd4339526c443c27728f76710a',
    ),
    'bouabdallah-s1-closed-chunk16': (
        4158,
        (('BLInquire', 951), ('BLResourceToken', 951), ('NTRequest', 973), ('NTToken', 423)),
        '1eb2c53ae07fb5e8ad9ef11c83372dbe338c813105a5e66dda7be253bf754a03',
        '7e41ed35a626676a7be02eac96d23db7372e97cd4339526c443c27728f76710a',
    ),
    'bouabdallah-s1-mmpp-chunk64': (
        1198,
        (('BLInquire', 270), ('BLResourceToken', 270), ('NTRequest', 212), ('NTToken', 116)),
        '9db8289401cd433296ebe76fab7b0a21fa67b1ec68d849ed650a2201fa10ead9',
        '062f6f7a6a93fd8ddbcaa6c93800d253dac46c8cc1ca56f335e0095a87030801',
    ),
    'bouabdallah-s1-poisson-capped': (
        1715,
        (('BLInquire', 387), ('BLResourceToken', 387), ('NTRequest', 359), ('NTToken', 182)),
        'f5bb8234e971f709a52018e67da75945b6c3d2e01e747751a56a799d12bb45e6',
        '4271627d6e149c136d1f5923c5f4ba9d3313b2289f5e991018f7b8beed25022c',
    ),
    'bouabdallah-s2-closed': (
        4524,
        (('BLInquire', 1036), ('BLResourceToken', 1036), ('NTRequest', 1037), ('NTToken', 469)),
        'cf4b0c2535c0ce52ca155a788d748d0648a2c192340584a1823e19ee640f9019',
        'ff3f3c222b76a1e6f20a699659e70f90849fbde1a7d1bd2efbe133a26e613968',
    ),
    'bouabdallah-s2-closed-chunk16': (
        4524,
        (('BLInquire', 1036), ('BLResourceToken', 1036), ('NTRequest', 1037), ('NTToken', 469)),
        '96ca68f159e490a4f7b6ba82be0c45bc52ca50e02746d81fe599a3f7c7874952',
        'ff3f3c222b76a1e6f20a699659e70f90849fbde1a7d1bd2efbe133a26e613968',
    ),
    'bouabdallah-s2-mmpp-chunk64': (
        1638,
        (('BLInquire', 387), ('BLResourceToken', 387), ('NTRequest', 262), ('NTToken', 164)),
        'df01103c4aef167fc253db9c8283530f842611bc9a83e499dcc050cd810557b3',
        '871d9558c9dd4c86d99828ef5d2cf00d456f11649f57ffbdd008cfc372dce0e2',
    ),
    'bouabdallah-s2-poisson-capped': (
        1797,
        (('BLInquire', 427), ('BLResourceToken', 427), ('NTRequest', 359), ('NTToken', 184)),
        '0de29a8a46a8d44818ce136df0bb50393ccafcfc77b43ea80d074ce9e7e23571',
        'ec44fe21f6f10619187c9383f32097cbe27437f71636d50fae4d36820508b827',
    ),
    'incremental-blip-hb-closed': (
        3487,
        (('NTRequest', 1760), ('NTToken', 915)),
        '663bbf9aab4620983fe65ac7d002137136eb80ccdb1a681d6e645db8c3e1a6de',
        'fb0800cd5fae68ff82e6f32ed1db4dbd7ba4ac9242349bfc6e6e9aae6faa000a',
    ),
    'incremental-blip-hb-open': (
        2956,
        (('NTRequest', 1441), ('NTToken', 772)),
        '04b046e7a6f616cd6ae5662dc31236dcb930f7bf8a9c748f0cfd2bc224cf37e6',
        '5c0fcf397c718828a5cc86a13623ab73cfb487530f4f5de79080899d7eb518a6',
    ),
    'incremental-blip-nodet-closed': (
        729,
        (('NTRequest', 366), ('NTToken', 194)),
        'b13811df0056bb8f39d9935690175213e3ae4ec55e6324f3f36db01746fb2abb',
        '1c2640e92ec0624736873b98069331580d984c5f0f12c6f219484d0879dbda12',
    ),
    'incremental-blip-nodet-open': (
        970,
        (('NTRequest', 330), ('NTToken', 184)),
        '4f46ea9593f810b6f58c7c1633168c3349efb99916b3c2e09cf282350fcc4e18',
        'b692ed8da82e55772cf919e2a532fc93eee0275f96bc4308b89819556fabac32',
    ),
    'incremental-nested-hb-closed': (
        3014,
        (('NTRequest', 1442), ('NTToken', 821)),
        '1f0a06466252ff48217841a0b779039be2e17711a0a090f48d4e34c224da7b4b',
        'cdb3f6c7b481478cd9553b2137d0f9b20b94f374e72404b48d8bbd4ef5f0daae',
    ),
    'incremental-nested-hb-open': (
        2269,
        (('NTRequest', 1027), ('NTToken', 596)),
        'd50ab4dc1e5b60797b485a72f691f7fcb27b373f14c520eb48292812499a99cd',
        '565ac46ece62d7252b08429aa0852669654a7a6508ff5a0ded149029c1ec9e29',
    ),
    'incremental-nested-nodet-closed': (
        732,
        (('NTRequest', 366), ('NTToken', 194)),
        '6c2a9884f072dfe0b1a8901a0e621cb4c3d0894fab78c0676df4fcfb64ce6d8e',
        '39705760ceb31c3b6974461cde3148e1614e0f392c69163310f5f55ab93e5ddb',
    ),
    'incremental-nested-nodet-open': (
        936,
        (('NTRequest', 330), ('NTToken', 184)),
        '40cc71400a030d99776a589be80e7752cff4ce8d80557afbd3ac9370d113bbef',
        '0c8b2b44c87a80476a81ee314fdc96969871ceaf024384fae7e336d9f12d2859',
    ),
    'incremental-permanent-hb-closed': (
        3317,
        (('NTRequest', 1619), ('NTToken', 905)),
        'c739026349aa0d16bd4df8fa1084ee69ded91da4d12049052ecf466fec6e826c',
        '98cac3fa9fdfb66536a5921cb4d71f54d359cd1e9fc862061b9278a1e500a3a0',
    ),
    'incremental-permanent-hb-open': (
        2646,
        (('NTRequest', 1267), ('NTToken', 693)),
        '2f456d240cb2a8dd8fe6e0b7394fe9f669a18ece5ddc8685cca4c32a0db74afc',
        '76bf6e73e76dc925c11f56253868c4414a3e2c571d9d9e1509f3fa6d0602ec3d',
    ),
    'incremental-permanent-nodet-closed': (
        1001,
        (('NTRequest', 497), ('NTToken', 269)),
        'cea8596176e448cb556d3387d4e0f126501b02bc7948815c598279ea1d1254f7',
        'a89982fe8da48f1bbd77de9f9b097916cf47c1347323fa6e37e0dfdd22255ff9',
    ),
    'incremental-permanent-nodet-open': (
        1115,
        (('NTRequest', 425), ('NTToken', 235)),
        'c6906c8e63d8701088ee0800453780b2d3c41352a5ab7f4118987ce7102856f3',
        'ea567e4c07223fdc8b42018041b20b14e1c784d180bff8fde2051dff39b0c546',
    ),
    'incremental-s1-closed': (
        3288,
        (('NTRequest', 1668), ('NTToken', 864)),
        'aef15b76a576ba39b8ad2482e2fc9f5a7254032e97fd8d550dcec4bd84663aea',
        '1337fbb8a0934efc82edeb0251ce07d3b81ff827ca8765f53c4341ac42d797f2',
    ),
    'incremental-s1-closed-chunk16': (
        3288,
        (('NTRequest', 1668), ('NTToken', 864)),
        '482b1071131335bd7e4bbfee82b8f787521fe9da6b498095d54f227bbf505742',
        '1337fbb8a0934efc82edeb0251ce07d3b81ff827ca8765f53c4341ac42d797f2',
    ),
    'incremental-s1-mmpp-chunk64': (
        1137,
        (('NTRequest', 518), ('NTToken', 289)),
        '223b58d5850af58d24e681fee20d78e9ca4acee301dd48e50f35e48e7db4c800',
        '6bdb55df8534d54ace17c96f6f2753c98eca283a2d5604ad050fdf209ab5c8c2',
    ),
    'incremental-s1-poisson-capped': (
        1545,
        (('NTRequest', 740), ('NTToken', 405)),
        '65b54806545a647dc8896997637008ebbe48f3e3bd683235f668111c43698765',
        'ca46e72e07ae670d8e7cfa5838d71dd1c17864dd8f396d504804a28157eb1d3b',
    ),
    'incremental-s2-closed': (
        3687,
        (('NTRequest', 1850), ('NTToken', 951)),
        '2c525dac9b6a7b0a8272289aa21d5949e0767aadd0a9af84b1e196eeb88e0f0d',
        '97daff6b0c682fcb8e05db37c47529e8743d58674b935a403bdf05fe7f663206',
    ),
    'incremental-s2-closed-chunk16': (
        3687,
        (('NTRequest', 1850), ('NTToken', 951)),
        '729087f6945787c2b32e137806a286fb8154d28df7417e526892f727ed6d6dc4',
        '97daff6b0c682fcb8e05db37c47529e8743d58674b935a403bdf05fe7f663206',
    ),
    'incremental-s2-mmpp-chunk64': (
        1514,
        (('NTRequest', 674), ('NTToken', 402)),
        'b3d633dc1a1f84af3f9411a8860c31da7d4cf488997e884b8e6246410f2b5bf7',
        'a22e88b666896ec9818e66751c3abb9e00c88aac3dad1ab2f28eb577fa5f4e0f',
    ),
    'incremental-s2-poisson-capped': (
        1660,
        (('NTRequest', 816), ('NTToken', 444)),
        '927d17048e48ba14ed4f79ea8a0fb43f1d252fd80e9abb15072e842b03a84572',
        '4ce9758603ff714587f01700f302a74c9b3ba69529fad51c3de97dcdf85c387f',
    ),
    'shared_memory-s1-closed': (
        1880,
        (),
        '8f83fa607417f85bc62e83eb33bab45681c537048b40b4d6454667d998b7c95e',
        'd1c3f6a5f02335e53426a3fbcce153c43ae2b76fdc14c33537d038ae536620b8',
    ),
    'shared_memory-s1-closed-chunk16': (
        1880,
        (),
        '9544968758e57827c90ec04bc67c9734157d733fd3338a11a9077d52b01e9aeb',
        'd1c3f6a5f02335e53426a3fbcce153c43ae2b76fdc14c33537d038ae536620b8',
    ),
    'shared_memory-s1-mmpp-chunk64': (
        491,
        (),
        '1505a3736ca6ce820f815dc8016b348fe89aa5cd92c69d3b44bdd78ed9f28817',
        'f1b4ae21721a9a92bd2e96aa51c3a80c10f578673382c03423b5e96cf06b51ab',
    ),
    'shared_memory-s1-poisson-capped': (
        600,
        (),
        'cb4529795338e3d01180bbe521d60af8a3f54f8afedaefc5ee8af0f3c9b719ad',
        '692c28679f3859bb772ca068b78bb8937307b534328198084caf1edaf457b2ec',
    ),
    'shared_memory-s2-closed': (
        1901,
        (),
        '1b5de93e49af0a1dfce88df83d67d74325bda181fe64f9eddda40513106a1f6f',
        '5420d56d07595017dc595a69c16ad46eb13901d9d6ed6e55295a864f493b8e0b',
    ),
    'shared_memory-s2-closed-chunk16': (
        1901,
        (),
        '50db8f2b431dd4d2bea396dcc091b47bc3d884b796acac2097d317f81d0450da',
        '5420d56d07595017dc595a69c16ad46eb13901d9d6ed6e55295a864f493b8e0b',
    ),
    'shared_memory-s2-mmpp-chunk64': (
        653,
        (),
        '565b0af023d2d7ebe92d15fb049521bddb99884c1b311198c26ac78b53ea64e4',
        '2d4ded4d3d8df0ac080236d47a4000f8f194b8f05791e7fc32c699cae8ccb6aa',
    ),
    'shared_memory-s2-poisson-capped': (
        600,
        (),
        '465dcca725db2e5b3007433c2c3643b0fe43308ffb1f45f00fbc7fb91639b5ed',
        'fe580dc756a20a58377b01654a8e1037f91768cded09f368e1241a588d99bea6',
    ),
    'with_loan-blip-hb-closed': (
        5869,
        (('CounterEnvelope', 614), ('RequestEnvelope', 3126), ('TokenEnvelope', 1148)),
        'f54b6670f8e72728448e7d6a79508c299c3efd52c31143622be55fd9b9f6dd79',
        '5609aa85cd553d1f15bc3005123376345df2a17b928330e870d387b8b7c64649',
    ),
    'with_loan-blip-hb-open': (
        3588,
        (('CounterEnvelope', 234), ('RequestEnvelope', 1860), ('TokenEnvelope', 751)),
        '6597a650146eb0e862e5998c6eafb1a9e1706ef8952d06f2fee61212cd5d83c2',
        '3376fd96f6ff24b5d762ee900661f16aca16cc1436da360569dd6b8b65267a56',
    ),
    'with_loan-blip-nodet-closed': (
        3916,
        (('CounterEnvelope', 407), ('RequestEnvelope', 2076), ('TokenEnvelope', 770)),
        '54d997b10b9edb402a708ff299e69fa4670a73324ecb649b082030ec196ec4b9',
        '6b7e537b736bbbf3c9cf10006e8f650bbcde001ad7e3f8c2d216b24307e6ff9c',
    ),
    'with_loan-blip-nodet-open': (
        3964,
        (('CounterEnvelope', 375), ('RequestEnvelope', 2058), ('TokenEnvelope', 784)),
        '5a000ca724191f1013d1bc3a9cb04a38315d7d085fd8abc8041aecc2c3d352df',
        '932685374182db54751a748833da3786975d605c75ed68b994d5f3fedf3796bd',
    ),
    'with_loan-nested-hb-closed': (
        5290,
        (('CounterEnvelope', 556), ('RequestEnvelope', 2739), ('TokenEnvelope', 1078)),
        '71589da51b607688503a510efb2906db00e402a6d2843cf3d19733c363b84cfe',
        '24f87c4f4c1a823240d35b9f05793682e362e363115eb8759c52704a3fe89745',
    ),
    'with_loan-nested-hb-open': (
        2643,
        (('CounterEnvelope', 154), ('RequestEnvelope', 1253), ('TokenEnvelope', 575)),
        'fdb8214bb57ee19d1733be776cc4557bea0643e2199fc0c91955dcea237dd0ae',
        '26bbc0e7ccb9a7faa882d590b0e3a27bc1f75af4be5ec02d53cc59472ff0f022',
    ),
    'with_loan-nested-nodet-closed': (
        1721,
        (('CounterEnvelope', 138), ('RequestEnvelope', 973), ('TokenEnvelope', 268)),
        'c7867d5b88679b7d430865c628a1f7cd99667b10bcda06fbcd4c92f2a1a450dc',
        '78711843cdf53834f4f2b10b28d9ae0801ed80611beb3bee41a51597ceee2d3d',
    ),
    'with_loan-nested-nodet-open': (
        1743,
        (('CounterEnvelope', 92), ('RequestEnvelope', 856), ('TokenEnvelope', 231)),
        '4a296fbdfb2ab9710c85453d04436df396030cad3ba1f23ae2172291daf33b40',
        '4c56e5f6a67058dd235063e68d47ac3d14a08a4c7ed72b239475aae956f651eb',
    ),
    'with_loan-permanent-hb-closed': (
        5245,
        (('CounterEnvelope', 529), ('RequestEnvelope', 2739), ('TokenEnvelope', 1076)),
        '228e45d49337dad1155b78b9dfdf3931d5d98cd6f19a75098b0d5e585dffdbf6',
        'c07b861a34e5a424985c40b64e8751cf194533658c4ca74a12c9c2f9264b1eda',
    ),
    'with_loan-permanent-hb-open': (
        3120,
        (('CounterEnvelope', 190), ('RequestEnvelope', 1573), ('TokenEnvelope', 671)),
        '394fd5dbd28ddaec923b5bfd22b8ce0be336cd66e948e3ba5b0e6c23fcdfa4fc',
        '574911b82b68457b5c03d134b91448861c82fa8bdc149e865cf9a2a06861c1c2',
    ),
    'with_loan-permanent-nodet-closed': (
        1990,
        (('CounterEnvelope', 167), ('RequestEnvelope', 1115), ('TokenEnvelope', 327)),
        '7364e19426009a6724abb52297e1b64edae72bce76b2fe77f6d71cdfb10c034a',
        'cd74b8c8f1b963b3d69475e76d5ffbb2a7e1493f8676e3dede70629c5bb93a1d',
    ),
    'with_loan-permanent-nodet-open': (
        1723,
        (('CounterEnvelope', 90), ('RequestEnvelope', 816), ('TokenEnvelope', 244)),
        'e4108f84148bfe02d1ebd9e3cd517d15944c80da09982b5444e8b957717904f6',
        '6ffc51ba1fd93c622af33e79f9f6360395f2f715a91a516f658093a158643647',
    ),
    'with_loan-s1-closed': (
        5942,
        (('CounterEnvelope', 619), ('RequestEnvelope', 3198), ('TokenEnvelope', 1165)),
        '450735c258e9cdfe63baaa094f02da733a6f987562085376f4750493b040e4da',
        '9c3cc6e90b61131996e4b208bfa72df0588c76e7706c66bf50edf2e8acbd54f5',
    ),
    'with_loan-s1-closed-chunk16': (
        5942,
        (('CounterEnvelope', 619), ('RequestEnvelope', 3198), ('TokenEnvelope', 1165)),
        'daca38fd7cd21a69973fec8d33cb6ddfe18b51eccfb9fb66adebd2db4dfa9f04',
        '9c3cc6e90b61131996e4b208bfa72df0588c76e7706c66bf50edf2e8acbd54f5',
    ),
    'with_loan-s1-mmpp-chunk64': (
        1165,
        (('CounterEnvelope', 38), ('RequestEnvelope', 535), ('TokenEnvelope', 262)),
        '43b3d9186de8b666b0bf43862c3193ed516e459e94aed0ba4dc4893b13e86e53',
        '04677ac383a21768c74722269a5e9756913abcba5470179e6818907ffc0d784f',
    ),
    'with_loan-s1-poisson-capped': (
        1849,
        (('CounterEnvelope', 119), ('RequestEnvelope', 936), ('TokenEnvelope', 394)),
        'b85650235b75fe05384268a58c1c93101cdb76c8eb55fc2d16dbbcc2d06c9426',
        '2e2d27849abdac4c682b69ef026f15ba38ff0ab3c4d3236952189bec7c25fa3c',
    ),
    'with_loan-s2-closed': (
        6131,
        (('CounterEnvelope', 608), ('RequestEnvelope', 3306), ('TokenEnvelope', 1185)),
        '401cde676726ffcb84843c62036d099655b824da3c0734ccd4b29708659610b6',
        '1a23efc8bc8744f852ded95fd87b41ed624be6f1c99b6946d06444b26d55cac4',
    ),
    'with_loan-s2-closed-chunk16': (
        6131,
        (('CounterEnvelope', 608), ('RequestEnvelope', 3306), ('TokenEnvelope', 1185)),
        '0cab30866eac5340dbacd5ba4469dc2afb1d46233bb9269e7ebfc505572fda93',
        '1a23efc8bc8744f852ded95fd87b41ed624be6f1c99b6946d06444b26d55cac4',
    ),
    'with_loan-s2-mmpp-chunk64': (
        1616,
        (('CounterEnvelope', 71), ('RequestEnvelope', 725), ('TokenEnvelope', 382)),
        'c4d965fc62f795e89ae59416d78abfcf0dc12c498a4cf9398fed6a506298d8a9',
        '4264a375d0005905ad030240268a11b419a15e0f087b10537c256dbadfd85a86',
    ),
    'with_loan-s2-poisson-capped': (
        1996,
        (('CounterEnvelope', 118), ('RequestEnvelope', 1043), ('TokenEnvelope', 435)),
        'eed9780539ce9770abfc4ff7d66d54df9e321843a16e1b7a0cac87215b4226a4',
        'b167c2e6e10c13ec28e7274d58924df7ad041176c67c4dff93c755d2ab7c2f86',
    ),
    'with_loan-swf': (
        2280,
        (('CounterEnvelope', 204), ('RequestEnvelope', 1225), ('TokenEnvelope', 451)),
        '9d9de0daea54b60b890d5a7c28043c1c4c27d04b342537043d1762766887c8b6',
        '0f5627bf3c667e34bece225786b92d816a9ccee8e6f3500ac1e89090459a5230',
    ),
    'without_loan-s1-closed': (
        5355,
        (('CounterEnvelope', 601), ('RequestEnvelope', 2772), ('TokenEnvelope', 1080)),
        '526c6d27a8613ccca4485406e4fc8d28f7803df845cc71af768949f116c961dd',
        '95bdcec7c86c23011523959e62217d2db5e1442cfe78ec80c8846b4f5bada5c2',
    ),
    'without_loan-s1-closed-chunk16': (
        5355,
        (('CounterEnvelope', 601), ('RequestEnvelope', 2772), ('TokenEnvelope', 1080)),
        '5a440c6eaa9e1a805e805b237624718a9bb3bd141b9692987533c42fd2cfa5f0',
        '95bdcec7c86c23011523959e62217d2db5e1442cfe78ec80c8846b4f5bada5c2',
    ),
    'without_loan-s1-mmpp-chunk64': (
        1163,
        (('CounterEnvelope', 38), ('RequestEnvelope', 533), ('TokenEnvelope', 262)),
        '43b3d9186de8b666b0bf43862c3193ed516e459e94aed0ba4dc4893b13e86e53',
        '26adba6996ffee894a1f9aa198780262dbc5d37bb41bd1315ea8ec19a64cc453',
    ),
    'without_loan-s1-poisson-capped': (
        1846,
        (('CounterEnvelope', 129), ('RequestEnvelope', 927), ('TokenEnvelope', 390)),
        '962ea4e1e38368c8f10425c5de4b0cabedd91c5b58041311b7910668cc147399',
        'f745c617637662edc7b30e4caf7335aa4900ad7337c0d7ab15ef06e0b298c765',
    ),
    'without_loan-s2-closed': (
        5746,
        (('CounterEnvelope', 594), ('RequestEnvelope', 2995), ('TokenEnvelope', 1147)),
        '0a80bf39bc7632a791a7366ee4f14285b9a03dff78b99607963e2f7a7f301343',
        'faa6deb11a81f576400243fb799a233dce8570d230967bb37e90a84961574e1e',
    ),
    'without_loan-s2-closed-chunk16': (
        5746,
        (('CounterEnvelope', 594), ('RequestEnvelope', 2995), ('TokenEnvelope', 1147)),
        '08372634337b5cf6e6402799dba322081898ac4b2bb51d8a4382eafbcb4d7630',
        'faa6deb11a81f576400243fb799a233dce8570d230967bb37e90a84961574e1e',
    ),
    'without_loan-s2-mmpp-chunk64': (
        1611,
        (('CounterEnvelope', 71), ('RequestEnvelope', 720), ('TokenEnvelope', 382)),
        'c4d965fc62f795e89ae59416d78abfcf0dc12c498a4cf9398fed6a506298d8a9',
        '0c83c0f34bb82d2675689e2e0db9c2fe3af855d59c0a92b6f017952cc9a026b6',
    ),
    'without_loan-s2-poisson-capped': (
        1970,
        (('CounterEnvelope', 118), ('RequestEnvelope', 1017), ('TokenEnvelope', 435)),
        'eed9780539ce9770abfc4ff7d66d54df9e321843a16e1b7a0cac87215b4226a4',
        '69a60f99848a4baddd688b9b5dbfee58175370672936e60407e57b4d16189d7c',
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_run_matches_pin(name):
    assert fingerprint(run(scenarios()[name])) == PINNED[name]


def test_every_scenario_of_the_grid_is_pinned():
    assert sorted(scenarios()) == sorted(PINNED)
