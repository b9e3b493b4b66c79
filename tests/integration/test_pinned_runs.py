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
        3476,
        (('BLInquire', 806), ('BLResourceToken', 806), ('NTRequest', 804), ('NTToken', 348)),
        '983a7f9f26fb55a1d3847691345bc03d296935a00fb3bc0cadf0f61278f8f98e',
        '8069e5648e79f543b34dff8ca54fd28b1925d64c1b7b3fbf9ec2a7980fb18fec',
    ),
    'bouabdallah-blip-hb-open': (
        3326,
        (('BLInquire', 766), ('BLResourceToken', 766), ('NTRequest', 697), ('NTToken', 354)),
        '8a3d3fe4051e85aa67734e5dcf12fd31c6de5884d704299bca4f04c808ad91e4',
        'bca3dc1307cd8bba2721a0cec922b63a4b1f75a9a5f9790196ea1f90fc353a0e',
    ),
    'bouabdallah-blip-nodet-closed': (
        3475,
        (('BLInquire', 806), ('BLResourceToken', 806), ('NTRequest', 804), ('NTToken', 348)),
        '983a7f9f26fb55a1d3847691345bc03d296935a00fb3bc0cadf0f61278f8f98e',
        '8069e5648e79f543b34dff8ca54fd28b1925d64c1b7b3fbf9ec2a7980fb18fec',
    ),
    'bouabdallah-blip-nodet-open': (
        3325,
        (('BLInquire', 766), ('BLResourceToken', 766), ('NTRequest', 697), ('NTToken', 354)),
        '8a3d3fe4051e85aa67734e5dcf12fd31c6de5884d704299bca4f04c808ad91e4',
        'bca3dc1307cd8bba2721a0cec922b63a4b1f75a9a5f9790196ea1f90fc353a0e',
    ),
    'bouabdallah-nested-hb-closed': (
        1078,
        (('BLInquire', 250), ('BLResourceToken', 243), ('NTRequest', 251), ('NTToken', 112)),
        'd5c704c612acb81fa97bc0aadc97e6bc65e761774261ed5447f708ffef35d30e',
        '2bb11257f87bbb5c6098ec01c9b72fafcbdb7df583de29efd239b0ae8391ab82',
    ),
    'bouabdallah-nested-hb-open': (
        1128,
        (('BLInquire', 198), ('BLResourceToken', 198), ('NTRequest', 197), ('NTToken', 94)),
        'a0c97753cb10ba7f34cb4116e20f26764c5d51ed264744eac6a8199bd12e42c1',
        'e4cb3fc29b5a38b242e643eb6c331ff8220c48127f07268d75f50c0a44bfb39f',
    ),
    'bouabdallah-nested-nodet-closed': (
        1076,
        (('BLInquire', 250), ('BLResourceToken', 243), ('NTRequest', 251), ('NTToken', 112)),
        'd5c704c612acb81fa97bc0aadc97e6bc65e761774261ed5447f708ffef35d30e',
        '2bb11257f87bbb5c6098ec01c9b72fafcbdb7df583de29efd239b0ae8391ab82',
    ),
    'bouabdallah-nested-nodet-open': (
        1126,
        (('BLInquire', 198), ('BLResourceToken', 198), ('NTRequest', 197), ('NTToken', 94)),
        'a0c97753cb10ba7f34cb4116e20f26764c5d51ed264744eac6a8199bd12e42c1',
        'e4cb3fc29b5a38b242e643eb6c331ff8220c48127f07268d75f50c0a44bfb39f',
    ),
    'bouabdallah-permanent-hb-closed': (
        1168,
        (('BLInquire', 271), ('BLResourceToken', 262), ('NTRequest', 275), ('NTToken', 122)),
        '920532a8b288d4c87cb15030776b0624a67ec5cc150b929a69eb622b8ff15973',
        'c03d03a1d317c8d120897d59615bf1033a61670417ad3ca5e94861be20ab3bbd',
    ),
    'bouabdallah-permanent-hb-open': (
        1248,
        (('BLInquire', 224), ('BLResourceToken', 224), ('NTRequest', 237), ('NTToken', 107)),
        'e06bde726b62ef00bdcf5f3baebf76a77753bde560962d73acbbffad0f81d3ac',
        '1118c7db404404a1309ae9796a9b4b00f13c0f0f2f94b95a971d63568b8d5034',
    ),
    'bouabdallah-permanent-nodet-closed': (
        1167,
        (('BLInquire', 271), ('BLResourceToken', 262), ('NTRequest', 275), ('NTToken', 122)),
        '920532a8b288d4c87cb15030776b0624a67ec5cc150b929a69eb622b8ff15973',
        'e9b6928a47d70f7be8fa3d9ebc59ae37e42bdc22e3d0be27eaa028d9b566c268',
    ),
    'bouabdallah-permanent-nodet-open': (
        1247,
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
        1244,
        (('NTRequest', 622), ('NTToken', 336)),
        '57567658f9aafd01aa0a18fd4abdcd77f89423fdfce2a3b67cb72889696d2658',
        'e141076a0e848bd8a269006504e94808449aae812c5d36af230dfb2f724c6740',
    ),
    'incremental-blip-hb-open': (
        2957,
        (('NTRequest', 1442), ('NTToken', 772)),
        '04b046e7a6f616cd6ae5662dc31236dcb930f7bf8a9c748f0cfd2bc224cf37e6',
        'fdc1190aa7b9a65e07d9cccfd5258f63576b01d46093a09a3afa12c9ee485b2d',
    ),
    'incremental-blip-nodet-closed': (
        1195,
        (('NTRequest', 583), ('NTToken', 315)),
        'fd2b95d30706c69311a9716629a9fe993a8a5297efb03af31d15bc7a1e92e6b8',
        '8d18dd67f727366e130993ae928efef54f340c9ef954695c922d06c1d8376a2b',
    ),
    'incremental-blip-nodet-open': (
        3030,
        (('NTRequest', 1494), ('NTToken', 794)),
        'cb294671f3244932c0f5ee8b37f3072f6cc1c85cab5cdd1dd99e11518ac50c3a',
        'c9f068b960b5eb1bbf322cc69fa424c43d2c1e7c68c576002a2853d769f555e2',
    ),
    'incremental-nested-hb-closed': (
        1245,
        (('NTRequest', 613), ('NTToken', 338)),
        'eb2848c74d4bbff277ab756abed0a791ad092607e6f68847b6718bc8a837c760',
        '29d9650c9517f4e5f771b44d2e62d87ed5c1f533979cfa82d4239f7f45eb76b4',
    ),
    'incremental-nested-hb-open': (
        2266,
        (('NTRequest', 1028), ('NTToken', 596)),
        'd50ab4dc1e5b60797b485a72f691f7fcb27b373f14c520eb48292812499a99cd',
        '5b7d961a03b43893b053b4687e12fc0df110cb2f19cde8f03e17204da0b07cf8',
    ),
    'incremental-nested-nodet-closed': (
        784,
        (('NTRequest', 394), ('NTToken', 208)),
        'cdd341dbe4cfe1fc5499bb0ae682722200fc5ebdc77a24de16f7a6092b197590',
        '19d161ab9ea79ebb0888431dc8277ea2b96a050d9408b2010f0ddb75b08264bb',
    ),
    'incremental-nested-nodet-open': (
        957,
        (('NTRequest', 344), ('NTToken', 192)),
        '8dfd815c32d6f4351a2a32b3f9cd795c5b4f9eada4f18f4fed443827502c4a80',
        '3726d5c4ba8bf9b5bcb3212f3df56c211d4751a29b11ca5873e6bee4fb59e9cc',
    ),
    'incremental-permanent-hb-closed': (
        3313,
        (('NTRequest', 1619), ('NTToken', 905)),
        'c739026349aa0d16bd4df8fa1084ee69ded91da4d12049052ecf466fec6e826c',
        '98cac3fa9fdfb66536a5921cb4d71f54d359cd1e9fc862061b9278a1e500a3a0',
    ),
    'incremental-permanent-hb-open': (
        2643,
        (('NTRequest', 1267), ('NTToken', 693)),
        '2f456d240cb2a8dd8fe6e0b7394fe9f669a18ece5ddc8685cca4c32a0db74afc',
        '76bf6e73e76dc925c11f56253868c4414a3e2c571d9d9e1509f3fa6d0602ec3d',
    ),
    'incremental-permanent-nodet-closed': (
        997,
        (('NTRequest', 497), ('NTToken', 269)),
        'cea8596176e448cb556d3387d4e0f126501b02bc7948815c598279ea1d1254f7',
        '0c52ab95daf7288b5be60d7787384ad57b1390d72f9bef720da8ca87283f1ed3',
    ),
    'incremental-permanent-nodet-open': (
        1113,
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
        5875,
        (('CounterEnvelope', 614), ('RequestEnvelope', 3132), ('TokenEnvelope', 1148)),
        'f54b6670f8e72728448e7d6a79508c299c3efd52c31143622be55fd9b9f6dd79',
        '3396911c3b5c4c36e4f6b41bf26385a46993dd9ffdce9ea7ccca86965e296ce3',
    ),
    'with_loan-blip-hb-open': (
        3592,
        (('CounterEnvelope', 234), ('RequestEnvelope', 1864), ('TokenEnvelope', 751)),
        '6597a650146eb0e862e5998c6eafb1a9e1706ef8952d06f2fee61212cd5d83c2',
        '3726a638956218ab439856b39eb0b4dcf1378d8caa5bf96345e54662b623eeda',
    ),
    'with_loan-blip-nodet-closed': (
        4927,
        (('CounterEnvelope', 526), ('RequestEnvelope', 2615), ('TokenEnvelope', 980)),
        '35df401ed1a1f75afb7fb6b4ef1f022aee29956ec4c5dec2ea568bf3f4caa174',
        '81dc236092717898b7cae0dede10de08f9749b0a6e068dc093614aa998fe80fc',
    ),
    'with_loan-blip-nodet-open': (
        3691,
        (('CounterEnvelope', 268), ('RequestEnvelope', 1926), ('TokenEnvelope', 755)),
        '5f88f118bbd929af55b7df0e199f4e1a3919c053c59c44b6a1b1f0ab4089303d',
        '8f52572575e8fcf7827e36b7e009ae92748fc9817b0b0de672def1f734aacbdb',
    ),
    'with_loan-nested-hb-closed': (
        5191,
        (('CounterEnvelope', 538), ('RequestEnvelope', 2702), ('TokenEnvelope', 1061)),
        'cec1ddc14d86c5d48b24c69e689806eac85630a1cdbd5b4537f7fde1dc59de15',
        'e1b82944d59d8fd18248bda4cbf7fbcc5fcdd54e90a9e840ffb4a690858b0602',
    ),
    'with_loan-nested-hb-open': (
        2614,
        (('CounterEnvelope', 154), ('RequestEnvelope', 1242), ('TokenEnvelope', 575)),
        'fdb8214bb57ee19d1733be776cc4557bea0643e2199fc0c91955dcea237dd0ae',
        'f8623c63890fb790a8fcee71b6e7e75ca19a5b40196170928ea87b8136371c7f',
    ),
    'with_loan-nested-nodet-closed': (
        1303,
        (('CounterEnvelope', 138), ('RequestEnvelope', 679), ('TokenEnvelope', 268)),
        '943cdbf8bc3c8fc194526b976be59a162bd13aa49a17a0c4d5bbc5a08c14dd39',
        'ea9ad58a0524210e1159b6d1a1ac359a08277d127e508a54973cc6bd55fa8038',
    ),
    'with_loan-nested-nodet-open': (
        1345,
        (('CounterEnvelope', 99), ('RequestEnvelope', 569), ('TokenEnvelope', 234)),
        'fd7643c1953c8e4ce2f6e8a972915829d2787e3d56a7768df58daaf7c4eaccfc',
        'ef188b3cc7f6b0f8f483f0bd8f4d7fd186fcdbe2a8204365886a00704e485016',
    ),
    'with_loan-permanent-hb-closed': (
        5234,
        (('CounterEnvelope', 529), ('RequestEnvelope', 2739), ('TokenEnvelope', 1076)),
        '228e45d49337dad1155b78b9dfdf3931d5d98cd6f19a75098b0d5e585dffdbf6',
        'c07b861a34e5a424985c40b64e8751cf194533658c4ca74a12c9c2f9264b1eda',
    ),
    'with_loan-permanent-hb-open': (
        3116,
        (('CounterEnvelope', 190), ('RequestEnvelope', 1573), ('TokenEnvelope', 671)),
        '394fd5dbd28ddaec923b5bfd22b8ce0be336cd66e948e3ba5b0e6c23fcdfa4fc',
        '574911b82b68457b5c03d134b91448861c82fa8bdc149e865cf9a2a06861c1c2',
    ),
    'with_loan-permanent-nodet-closed': (
        1580,
        (('CounterEnvelope', 167), ('RequestEnvelope', 827), ('TokenEnvelope', 327)),
        '7364e19426009a6724abb52297e1b64edae72bce76b2fe77f6d71cdfb10c034a',
        '9eb26ad942f068024300bb854b9f065e3d47be4ce4ed3d27b320d7baff30f37b',
    ),
    'with_loan-permanent-nodet-open': (
        1363,
        (('CounterEnvelope', 90), ('RequestEnvelope', 576), ('TokenEnvelope', 244)),
        'e4108f84148bfe02d1ebd9e3cd517d15944c80da09982b5444e8b957717904f6',
        '1b1d330561168dc47e6ec4a626feed29541a22e5ba8b447be39bcff60aafe3a4',
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
