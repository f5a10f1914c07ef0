"""Unit tests for the customer-geography model."""

from repro.workload.customers import CustomerModel


class TestCustomerModel:
    def test_lookup(self):
        model = CustomerModel({"a.com": "US"})
        assert model.customer_country("a.com") == "US"

    def test_unidentified_domain(self):
        model = CustomerModel({"a.com": None})
        assert model.customer_country("a.com") is None

    def test_unknown_domain(self):
        model = CustomerModel({})
        assert model.customer_country("ghost.com") is None

    def test_continent_mapping(self):
        assert CustomerModel.continent_of("US") == "NA"
        assert CustomerModel.continent_of("JP") == "AS"
        assert CustomerModel.continent_of(None) is None

    def test_region_country(self):
        assert CustomerModel.region_country("us-east-1") == "US"
        assert CustomerModel.region_country("eu-west-1") == "IE"
        assert CustomerModel.region_country("ap-east") == "HK"

    def test_region_continent(self):
        assert CustomerModel.region_continent("sa-east-1") == "SA"
        assert CustomerModel.region_continent("unknown-region") is None

    def test_every_region_has_country(self):
        from repro.cloud.azure import AZURE_REGION_SPECS
        from repro.cloud.ec2 import EC2_REGION_SPECS
        for spec in EC2_REGION_SPECS + AZURE_REGION_SPECS:
            assert CustomerModel.region_country(spec.name) is not None
